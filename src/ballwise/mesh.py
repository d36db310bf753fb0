"""Triangulated 2-D manifold components: areas, vertex quadrature weights,
graph-geodesic distances and metric balls.

A mesh is a set of vertices E and triangles T. Each triangle S contributes
one third of its flat (Heron) area to each of its vertices, giving quadrature
weights W(e) that turn vertex sums into integral approximations. Distances
are shortest paths in the weighted edge graph (Dijkstra), which is also what
defines the metric balls B(x, r) = {e : d(x, e) < r}.
"""

from __future__ import annotations

import csv
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

__all__ = [
    "TriangulatedManifold",
    "triangle_area",
    "load_mesh",
    "save_off",
    "build_icosphere",
    "save_distance_cache",
    "load_distance_cache",
]

# Relative slack on the triangle inequality before a triangle is rejected.
DEGENERACY_RTOL = 1e-9


def triangle_area(l1: float, l2: float, l3: float) -> float:
    """Area of the flat triangle with side lengths ``l1, l2, l3`` (Heron).

    Degenerate triangles (triangle inequality violated within
    ``DEGENERACY_RTOL`` of the perimeter) get area 0; larger violations
    raise ``ValueError``.
    """
    sides = sorted((float(l1), float(l2), float(l3)))
    if sides[0] < 0:
        raise ValueError(f"negative side length in {(l1, l2, l3)}")
    perimeter = sides[0] + sides[1] + sides[2]
    violation = sides[2] - (sides[0] + sides[1])
    if violation > 0:
        if violation > DEGENERACY_RTOL * perimeter:
            raise ValueError(
                f"side lengths {(l1, l2, l3)} violate the triangle inequality"
            )
        return 0.0
    s = 0.5 * perimeter
    rad = s * (s - sides[0]) * (s - sides[1]) * (s - sides[2])
    return float(np.sqrt(max(rad, 0.0)))


@dataclass
class TriangulatedManifold:
    """One triangulated component manifold.

    Attributes
    ----------
    vertices : (n, 3) float array
        Embedded coordinates.
    triangles : (f, 3) int array
        Vertex index triples.
    edges : (E, 2) int array
        Unique undirected edges, each row sorted.
    edge_lengths : (E,) float array
        Geodesic edge lengths; defaults to embedded Euclidean lengths and
        can be overridden (see :meth:`override_edge_lengths`).
    weights : (n,) float array or None
        Vertex quadrature weights, populated by :meth:`compute_weights`.
    distances : (n, n) float array or None
        Graph-geodesic distances, populated by :meth:`compute_distances`.
        ``inf`` marks disconnected pairs and pairs beyond ``distance_limit``.
    distance_limit : float
        The ``limit`` the distances were computed with (``inf``: all pairs).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edge_lengths: np.ndarray = field(default=None)  # type: ignore[assignment]
    weights: np.ndarray | None = None
    distances: np.ndarray | None = None
    distance_limit: float = np.inf

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        n = len(self.vertices)
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= n:
                raise ValueError("triangle references an invalid vertex index")
            for tri in self.triangles:
                if len(set(tri)) != 3:
                    raise ValueError(f"triangle {tri.tolist()} has repeated vertices")
        self.edges = _unique_edges(self.triangles)
        if self.edge_lengths is None:
            diffs = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
            self.edge_lengths = np.linalg.norm(diffs, axis=1)
        else:
            self.edge_lengths = np.asarray(self.edge_lengths, dtype=float)
            if self.edge_lengths.shape != (len(self.edges),):
                raise ValueError("edge_lengths does not match the edge count")
        if np.any(self.edge_lengths < 0):
            raise ValueError("negative edge length")
        self._edge_index = {
            (int(i), int(j)): k for k, (i, j) in enumerate(self.edges)
        }

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def edge_length(self, i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        return float(self.edge_lengths[self._edge_index[key]])

    def override_edge_lengths(self, path) -> None:
        """Apply per-edge length overrides from a CSV of ``i,j,length`` rows.

        Invalidates previously computed weights and distances.
        """
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                i, j, length = int(row[0]), int(row[1]), float(row[2])
                key = (min(i, j), max(i, j))
                if key not in self._edge_index:
                    raise ValueError(f"override for non-existent edge ({i}, {j})")
                if length < 0:
                    raise ValueError(f"negative override length for edge ({i}, {j})")
                self.edge_lengths[self._edge_index[key]] = length
        self.weights = None
        self.distances = None

    def triangle_areas(self) -> np.ndarray:
        """Flat areas of all triangles from their (possibly overridden) edge
        lengths."""
        areas = np.empty(len(self.triangles))
        for k, (a, b, c) in enumerate(self.triangles):
            try:
                areas[k] = triangle_area(
                    self.edge_length(a, b),
                    self.edge_length(b, c),
                    self.edge_length(a, c),
                )
            except ValueError as exc:
                raise ValueError(f"triangle #{k} ({a},{b},{c}): {exc}") from exc
        return areas

    def compute_weights(self) -> "TriangulatedManifold":
        """Populate vertex quadrature weights: one third of the total area of
        the triangles incident to each vertex."""
        areas = self.triangle_areas()
        w = np.zeros(self.n_vertices)
        np.add.at(w, self.triangles.ravel(), np.repeat(areas / 3.0, 3))
        self.weights = w
        return self

    def total_weight(self) -> float:
        if self.weights is None:
            self.compute_weights()
        return float(self.weights.sum())

    def adjacency(self, allowed_vertices=None):
        """Sparse symmetric edge-weight matrix, optionally restricted to
        edges with both endpoints in ``allowed_vertices``."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        lengths = self.edge_lengths
        if allowed_vertices is not None:
            mask = np.zeros(self.n_vertices, dtype=bool)
            mask[np.asarray(list(allowed_vertices), dtype=np.int64)] = True
            keep = mask[i] & mask[j]
            i, j, lengths = i[keep], j[keep], lengths[keep]
        n = self.n_vertices
        return coo_matrix(
            (np.concatenate([lengths, lengths]),
             (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(n, n),
        ).tocsr()

    def compute_distances(
        self, allowed_vertices=None, limit: float = np.inf
    ) -> "TriangulatedManifold":
        """Populate shortest-path distances over the edge graph.

        If ``allowed_vertices`` is given, only edges within that subset are
        traversed. Pairs farther apart than ``limit`` get ``inf``; every
        distance up to and including ``limit`` is the same as in the
        unbounded run, so a ball cap needs only ``limit=cap``. A graph with
        more than one connected component warns, and its cross-component
        pairs are ``inf`` whatever the limit.
        """
        graph = self.adjacency(allowed_vertices)
        d = dijkstra(graph, directed=False, limit=limit)
        np.fill_diagonal(d, 0.0)
        self.distance_limit = limit
        if _n_components(graph) > 1:
            warnings.warn(
                "mesh edge graph is disconnected; distances across components "
                "are infinite",
                stacklevel=2,
            )
        self.distances = d
        return self

    def ball(self, center: int, r: float) -> np.ndarray:
        """Vertex indices of the metric ball {e : d(center, e) < r}."""
        if self.distances is None:
            self.compute_distances()
        if not 0 <= center < self.n_vertices:
            raise IndexError(f"vertex index {center} out of range")
        if r > self.distance_limit:
            raise ValueError(
                f"radius {r} is beyond the distance limit {self.distance_limit}"
            )
        if np.isinf(self.distance_limit) and np.isinf(self.distances[center]).any():
            raise ValueError(
                f"vertex {center} is disconnected from part of the mesh"
            )
        return np.nonzero(self.distances[center] < r)[0]


def _unique_edges(triangles: np.ndarray) -> np.ndarray:
    if triangles.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [0, 2]]]
    )
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0)


# --- OFF file I/O ------------------------------------------------------------

def load_mesh(path, fmt: str = "OFF") -> TriangulatedManifold:
    """Read a mesh from an ASCII OFF file.

    Only triangular faces are accepted. Edge lengths default to the embedded
    Euclidean lengths; weights and distances are left uncomputed.
    """
    if fmt.upper() != "OFF":
        raise ValueError(f"unsupported mesh format: {fmt}")
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0].upper() != "OFF":
        raise ValueError(f"{path}: missing OFF header")
    tokens = tokens[1:]
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
        pos = 3  # skip edge count
        verts = np.array(tokens[pos:pos + 3 * nv], dtype=float).reshape(nv, 3)
        pos += 3 * nv
        faces = []
        for _ in range(nf):
            k = int(tokens[pos])
            if k != 3:
                raise ValueError(f"{path}: non-triangular face with {k} vertices")
            faces.append([int(t) for t in tokens[pos + 1:pos + 4]])
            pos += 1 + k
    except (IndexError, ValueError) as exc:
        if "non-triangular" in str(exc):
            raise
        raise ValueError(f"{path}: malformed OFF file ({exc})") from exc
    m = TriangulatedManifold(verts, np.array(faces, dtype=np.int64))
    if len(m.edges) and _n_components(m.adjacency()) > 1:
        warnings.warn(f"{path}: mesh is disconnected", stacklevel=2)
    return m


def _n_components(graph) -> int:
    n, _ = connected_components(graph, directed=False)
    return n


def off_text(m: TriangulatedManifold) -> str:
    lines = ["OFF", f"{m.n_vertices} {len(m.triangles)} 0"]
    lines += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in m.vertices]
    lines += [f"3 {t[0]} {t[1]} {t[2]}" for t in m.triangles]
    return "\n".join(lines) + "\n"


def save_off(m: TriangulatedManifold, path) -> None:
    with open(path, "w") as fh:
        fh.write(off_text(m))


# --- distance-matrix cache ---------------------------------------------------

def save_distance_cache(distances: np.ndarray, path) -> None:
    """Write a distance matrix as little-endian binary: uint64 vertex count
    followed by the row-major float64 matrix."""
    d = np.ascontiguousarray(distances, dtype="<f8")
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("distance matrix must be square")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", n))
        fh.write(d.tobytes())


def load_distance_cache(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read(8)
        if len(raw) < 8:
            raise ValueError(f"{path}: truncated distance cache")
        (n,) = struct.unpack("<Q", raw)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * n:
        raise ValueError(f"{path}: expected {n * n} entries, found {data.size}")
    return data.reshape(n, n).astype(float)


# --- icosphere ---------------------------------------------------------------

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTICES = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=float,
)

_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def build_icosphere(order: int, radius: float = 1.0) -> TriangulatedManifold:
    """Icosahedron-based tessellation of the sphere.

    Each of the 20 icosahedron faces is split into ``order**2`` triangles by
    barycentric subdivision and the new vertices are projected radially onto
    the sphere. Vertices shared between faces are merged by construction
    (index maps on corners and edges), giving exactly ``10*order**2 + 2``
    vertices and ``20*order**2`` faces.
    """
    if order < 1:
        raise ValueError("icosphere order must be a positive integer")
    if radius <= 0:
        raise ValueError("icosphere radius must be positive")
    n = int(order)

    coords: list[np.ndarray] = []
    index: dict[tuple, int] = {}

    def vertex_at(key, point) -> int:
        if key not in index:
            index[key] = len(coords)
            coords.append(point / np.linalg.norm(point) * radius)
        return index[key]

    def grid_key(face_id, corners, i, j):
        a, b, c = corners
        if i == 0 and j == 0:
            return ("v", a)
        if i == n and j == 0:
            return ("v", b)
        if j == n and i == 0:
            return ("v", c)
        if j == 0:  # edge a-b, parameter i from a
            return ("e", a, b, i) if a < b else ("e", b, a, n - i)
        if i == 0:  # edge a-c, parameter j from a
            return ("e", a, c, j) if a < c else ("e", c, a, n - j)
        if i + j == n:  # edge b-c, parameter j from b
            return ("e", b, c, j) if b < c else ("e", c, b, n - j)
        return ("f", face_id, i, j)

    faces = []
    for face_id, (a, b, c) in enumerate(_ICO_FACES):
        pa, pb, pc = _ICO_VERTICES[a], _ICO_VERTICES[b], _ICO_VERTICES[c]
        local = {}
        for i in range(n + 1):
            for j in range(n + 1 - i):
                point = ((n - i - j) * pa + i * pb + j * pc) / n
                local[(i, j)] = vertex_at(grid_key(face_id, (a, b, c), i, j), point)
        for i in range(n):
            for j in range(n - i):
                faces.append([local[(i, j)], local[(i + 1, j)], local[(i, j + 1)]])
                if i + j < n - 1:
                    faces.append(
                        [local[(i + 1, j)], local[(i + 1, j + 1)], local[(i, j + 1)]]
                    )

    return TriangulatedManifold(np.array(coords), np.array(faces, dtype=np.int64))
