"""Triangulated 2-D manifold components: areas, vertex quadrature weights,
graph-geodesic distances and metric balls.

A mesh is a set of vertices E and triangles T. Each triangle S contributes
one third of its flat (Heron) area to each of its vertices, giving quadrature
weights W(e) that turn vertex sums into integral approximations. Distances
are shortest paths in the weighted edge graph, which is also what defines the
metric balls B(x, r) = {e : d(x, e) < r}. They come from a vectorised numpy
search over a block of sources at a time (``_search``): it gives the same
float64 values as Dijkstra, and only the pairs it reached are kept, in rows
that a bound keeps short, each stably sorted by distance (``DistanceRows``).
"""

from __future__ import annotations

import csv
import os
import resource
import struct
import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TriangulatedManifold",
    "DistanceRows",
    "load_mesh",
    "save_off",
    "build_icosphere",
    "distance_cache_chunks",
    "load_distance_cache",
    "memory_limit",
    "check_memory",
    "icosphere_bytes",
]

# Relative slack on the triangle inequality before a triangle is rejected.
DEGENERACY_RTOL = 1e-9

# Elements per block of rows: the shortest-path search works on this many
# (source, vertex) pairs at a time, and a cache file read up to a bound is
# compressed this many distances at a time.
DISTANCE_BLOCK = 1 << 20


@dataclass(frozen=True)
class DistanceRows:
    """Distances from each center to the points near it, as sorted rows.

    Row i of ``indices`` (n x L) holds the points near center i by (distance,
    index), and of ``values`` their distances, a shorter row than the longest
    padded with the point n at ``inf``. Which points a row keeps (those within
    a search bound, or below a ball cap) is up to whoever builds it.
    """

    indices: np.ndarray  # (n, L) int32, padded with n
    values: np.ndarray   # (n, L) float64, padded with inf

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[tuple]) -> "DistanceRows":
        """Gather the rows one block at a time.

        ``blocks`` yields ``(start, stop, distances, kept)`` in row order:
        rows ``start:stop`` of the n x n distances, flat, and the positions in
        them of the entries to keep, ascending, so each row comes in index
        order. One stable sort by distance then orders it by (distance, index).
        Raises ``ValueError`` once what is held at the end would pass
        ``memory_limit()``: the padded rows and their ``filled`` mask, 13
        bytes a slot for n rows as long as the longest so far, and the kept
        entries of the blocks so far, 12 bytes each.
        """
        parts, counts, longest, limit = [], np.zeros(n, dtype=np.int64), 0, memory_limit()
        for start, stop, distances, kept in blocks:
            counts[start:stop] = np.diff(np.searchsorted(kept, np.arange(stop - start + 1) * n))
            longest = max(longest, int(counts[start:stop].max(initial=0)))
            need = 13 * n * longest + 12 * int(counts[:stop].sum())
            check_memory(f"distance rows of {n} points", need, limit,
                         "; use a smaller radius_cap or a coarser grid")
            parts.append((start, stop, (kept % n).astype(np.int32), distances[kept]))
        # each entry at its position in its row, in index order, the rest padding
        filled = np.arange(longest) < counts[:, None]
        rows = cls(np.full(filled.shape, n, dtype=np.int32), np.full(filled.shape, np.inf))
        for start, stop, c, d in parts:
            indices, values = rows.indices[start:stop], rows.values[start:stop]
            indices[filled[start:stop]], values[filled[start:stop]] = c, d
            s = np.argsort(values, axis=1, kind="stable")
            indices[:] = np.take_along_axis(indices, s, 1)
            values[:] = np.take_along_axis(values, s, 1)
        return rows

    @classmethod
    def from_dense_blocks(
        cls,
        n: int,
        block_rows: Callable[[int, int], np.ndarray],
        keep: Callable[[np.ndarray], np.ndarray],
    ) -> "DistanceRows":
        """Compress dense rows one block at a time.

        ``block_rows(start, stop)`` returns rows ``start:stop`` of the n x n
        distances, flat or not (``_block_size(n)`` rows per call, fewer at the
        end), and ``keep(block)`` marks the entries to keep.
        """
        def blocks():
            step = _block_size(n)
            for start in range(0, n, step):
                stop = min(n, start + step)
                block = block_rows(start, stop)
                yield start, stop, block.ravel(), np.flatnonzero(keep(block))

        return cls.from_blocks(n, blocks())

    def __len__(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Points and distances of row i, by (distance, index)."""
        k = np.count_nonzero(self.values[i] < np.inf)
        return self.indices[i, :k], self.values[i, :k]

    def next_distance(self, i, j) -> np.ndarray:
        """The distances at position j + 1 of rows i, ``inf`` past a row's end."""
        L = self.values.shape[1]
        return np.where(j + 1 < L, self.values[i, np.minimum(j + 1, L - 1)], np.inf)

    def below(self, bound: float) -> "DistanceRows":
        """The entries with distance < ``bound``, a prefix of every row."""
        keep = self.values < bound
        if np.array_equal(keep, self.values < np.inf):
            return self
        L = int(keep.sum(axis=1).max(initial=0))
        keep = keep[:, :L]
        return DistanceRows(np.where(keep, self.indices[:, :L], len(self)),
                            np.where(keep, self.values[:, :L], np.inf))


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

    Distances are not kept: :meth:`compute_distances` returns them.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edge_lengths: np.ndarray = field(default=None)  # type: ignore[assignment]
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        n = len(self.vertices)
        bad = ~np.isfinite(self.vertices).all(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"vertex {k} is not finite: {self.vertices[k].tolist()}")
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= n:
                raise ValueError("triangle references an invalid vertex index")
            t = self.triangles
            repeated = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
            if repeated.any():
                tri = t[np.argmax(repeated)]
                raise ValueError(f"triangle {tri.tolist()} has repeated vertices")
        self.edges = _unique_edges(self.triangles, n)
        # the edges' keys i * n + j, ascending, then a key no edge has
        self._edge_keys = np.append(self.edges[:, 0] * n + self.edges[:, 1], n * n)
        self._connectivity_checked = False  # see _warn_if_disconnected
        if self.edge_lengths is None:
            diffs = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
            self.edge_lengths = np.linalg.norm(diffs, axis=1)
        else:
            self.edge_lengths = np.asarray(self.edge_lengths, dtype=float)
            if self.edge_lengths.shape != (len(self.edges),):
                raise ValueError("edge_lengths does not match the edge count")
        if np.any(self.edge_lengths < 0):
            raise ValueError("negative edge length")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def _edge_ids(self, i, j) -> np.ndarray:
        """Positions in ``edges`` of the undirected edges (i, j); -1 where
        there is no such edge."""
        n = self.n_vertices
        lo = np.minimum(i, j).astype(np.int64)
        hi = np.maximum(i, j).astype(np.int64)
        keys = lo * n + hi
        pos = np.minimum(np.searchsorted(self._edge_keys, keys), len(self.edges))
        found = (lo >= 0) & (hi < n) & (self._edge_keys[pos] == keys)
        return np.where(found, pos, -1)

    def edge_length(self, i: int, j: int) -> float:
        k = int(self._edge_ids(i, j))
        if k < 0:
            raise KeyError((min(i, j), max(i, j)))
        return float(self.edge_lengths[k])

    def override_edge_lengths(self, path) -> None:
        """Apply per-edge length overrides from a CSV of ``i,j,length`` rows.

        Invalidates previously computed weights.
        """
        with open(path, newline="") as fh:
            rows = [
                row for row in csv.reader(fh)
                if row and not row[0].lstrip().startswith("#")
            ]
        try:
            i = np.array([int(row[0]) for row in rows], dtype=np.int64)
            j = np.array([int(row[1]) for row in rows], dtype=np.int64)
            length = np.array([float(row[2]) for row in rows])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: malformed edge-length row ({exc})") from None
        ids = self._edge_ids(i, j)
        missing, invalid = ids < 0, ~((length >= 0) & (length < np.inf))  # nan fails both
        if (missing | invalid).any():
            k = int(np.argmax(missing | invalid))
            what = "override for non-existent edge" if missing[k] else (
                f"override length {length[k]} (negative or not finite) for edge"
            )
            raise ValueError(f"{path}: {what} ({i[k]}, {j[k]})")
        self.edge_lengths[ids] = length
        self.weights = None

    def triangle_areas(self) -> np.ndarray:
        """Flat (Heron) areas of all triangles from their (possibly
        overridden) edge lengths.

        Degenerate triangles (triangle inequality violated within
        ``DEGENERACY_RTOL`` of the perimeter) get area 0; a larger violation
        or a negative side raises ``ValueError`` naming the first such
        triangle.
        """
        a, b, c = self.triangles.T
        sides_of = [self._edge_ids(a, b), self._edge_ids(b, c), self._edge_ids(a, c)]
        lengths = self.edge_lengths[np.stack(sides_of, axis=1)]
        sides = np.sort(lengths, axis=1)
        perimeter = sides[:, 0] + sides[:, 1] + sides[:, 2]
        violation = sides[:, 2] - (sides[:, 0] + sides[:, 1])
        bad = (sides[:, 0] < 0) | (violation > DEGENERACY_RTOL * perimeter)
        if bad.any():
            k = int(np.argmax(bad))
            given = tuple(lengths[k].tolist())
            what = (
                f"negative side length in {given}" if sides[k, 0] < 0
                else f"side lengths {given} violate the triangle inequality"
            )
            raise ValueError(f"triangle #{k} ({a[k]},{b[k]},{c[k]}): {what}")
        s = 0.5 * perimeter
        rad = s * (s - sides[:, 0]) * (s - sides[:, 1]) * (s - sides[:, 2])
        # a negative product of rounding is 0; nan and -0.0 pass through
        area = np.sqrt(np.where(rad < 0, 0.0, rad))
        return np.where(violation > 0, 0.0, area)

    def compute_weights(self) -> "TriangulatedManifold":
        """Populate vertex quadrature weights: one third of the total area of
        the triangles incident to each vertex. A vertex in no triangle of
        positive area weighs 0 and is refused (``ValueError``), as is a
        weight that overflows, before any distance work on the mesh."""
        areas = self.triangle_areas()
        w = np.zeros(self.n_vertices)
        np.add.at(w, self.triangles.ravel(), np.repeat(areas / 3.0, 3))
        bad = np.flatnonzero(~((w > 0) & (w < np.inf)))  # nan fails both
        if len(bad):
            raise ValueError(f"point {bad[0]} has weight {w[bad[0]]}; "
                             "component weights must be positive and finite")
        self.weights = w
        return self

    def total_weight(self) -> float:
        if self.weights is None:
            self.compute_weights()
        return float(self.weights.sum())

    def _graph(self) -> "_Graph":
        """The edge graph, each edge both ways."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        sources = np.concatenate([i, j])
        by_source = np.argsort(sources, kind="stable")
        indptr = np.zeros(self.n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=self.n_vertices), out=indptr[1:])
        return _Graph(
            indptr,
            np.concatenate([j, i])[by_source],
            np.concatenate([self.edge_lengths, self.edge_lengths])[by_source],
        )

    def compute_distances(self, limit: float = np.inf) -> DistanceRows:
        """Shortest-path distances over the edge graph: for each vertex, the
        ``DistanceRows`` row of the vertices within ``limit``.

        The search runs over blocks of sources (``_Graph.search_blocks``),
        whose reached positions, sorted, ``DistanceRows.from_blocks`` gathers
        into rows; no dense row is made. Every distance up to and including
        ``limit`` is the same float as in the unbounded run, and as
        Dijkstra's, so a ball cap needs only ``limit=cap``. A disconnected
        graph warns, once per mesh; its cross-component pairs are absent.
        """
        blocks = (
            (start, stop, best, np.sort(reached))
            for start, stop, best, reached in self._graph().search_blocks(limit)
        )
        rows = DistanceRows.from_blocks(self.n_vertices, blocks)
        self._warn_if_disconnected(
            "mesh edge graph is disconnected; distances across components are infinite"
        )
        return rows

    def _warn_if_disconnected(self, message: str) -> None:
        """Warn ``message`` to the caller's caller if the edge graph is
        disconnected, on a mesh's first call only (overrides keep the edges)."""
        checked, self._connectivity_checked = self._connectivity_checked, True
        if not checked and not self._graph().connected():
            warnings.warn(message, stacklevel=3)

    def ball(self, center: int, r: float) -> np.ndarray:
        """Vertex indices of the metric ball {e : d(center, e) < r}, ascending.

        One search from ``center`` stops at ``r``; its distances up to ``r``
        are those of the unbounded search. A vertex that ``center`` cannot
        reach is at distance ``inf``, in no ball.
        """
        n = self.n_vertices
        if not 0 <= center < n:
            raise IndexError(f"vertex index {center} out of range")
        d = np.full(n, np.inf)
        reached = _search(self._graph(), np.array([center]), r, d, np.empty(n, dtype=np.intp))
        return np.sort(reached[d[reached] < r])


def _unique_edges(triangles: np.ndarray, n: int) -> np.ndarray:
    """The sorted (i < j) vertex pairs joined by a triangle side, ascending."""
    i = np.concatenate([triangles[:, 0], triangles[:, 1], triangles[:, 0]])
    j = np.concatenate([triangles[:, 1], triangles[:, 2], triangles[:, 2]])
    # sorted, then repeats dropped: a plain np.unique would import numpy.ma
    keys = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack([keys // n, keys % n], axis=1)


def _block_size(n: int) -> int:
    """Rows per block of an n-point distance computation: about
    ``DISTANCE_BLOCK`` elements, and never more than the n rows there are."""
    return max(1, min(n, DISTANCE_BLOCK // max(n, 1)))


@dataclass(frozen=True)
class _Graph:
    """A weighted graph in CSR form: the edges out of vertex v are
    ``targets[indptr[v]:indptr[v + 1]]`` with lengths ``lengths[...]``.
    Zero-length edges are edges."""

    indptr: np.ndarray   # (n + 1,) int64
    targets: np.ndarray  # (m,) int64
    lengths: np.ndarray  # (m,) float64

    def search_blocks(self, limit: float) -> Iterator[tuple]:
        """Run ``_search`` from every vertex, ``_block_size(n)`` sources at a
        time, and yield ``(start, stop, best, reached)`` per block: ``best``
        holds rows ``start:stop`` of the distances, flat and ``inf`` beyond
        ``limit``, and ``reached`` the positions of its finite entries. Both
        are overwritten by the next block.
        """
        n = len(self.indptr) - 1
        step = _block_size(n)
        best = np.full(step * n, np.inf)
        mark = np.empty(step * n, dtype=np.intp)
        for start in range(0, n, step):
            stop = min(n, start + step)
            reached = _search(self, np.arange(start, stop), limit, best, mark)
            yield start, stop, best[:(stop - start) * n], reached
            best[reached] = np.inf  # the next block starts from all inf

    def connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0."""
        n = len(self.indptr) - 1
        if n == 0:
            return True
        d = np.full(n, np.inf)
        _search(self, np.zeros(1, dtype=np.intp), np.inf, d, np.empty(n, dtype=np.intp))
        return not np.isinf(d).any()


def _search(graph: _Graph, sources, limit, best, mark) -> np.ndarray:
    """Shortest-path distances from ``sources`` up to ``limit``.

    ``best`` is a flat array whose ``len(sources) * n`` first entries are
    ``inf`` on entry; on return entry ``r * n + v`` is the distance from
    ``sources[r]`` to v, or ``inf`` when that is above ``limit``. ``mark`` is
    scratch of the same length. Returns the positions of the finite entries,
    each once, in no particular order.

    Each round relaxes the edges out of every (source, vertex) pair that
    improved in the round before, keeping the candidates ``d < best`` and
    ``d <= limit``. The pairs that improved are the next frontier; the search
    ends when none did. Float addition of ``w >= 0`` is monotone, so every
    order of relaxation converges to the least left-to-right float sum over
    all walks, which is the value Dijkstra computes; and a walk's prefix sums
    never decrease, so stopping at ``limit`` cuts no walk that ends within it.
    """
    n = len(graph.indptr) - 1
    frontier = np.arange(len(sources)) * n + sources
    best[frontier] = 0.0
    reached = [frontier]
    while len(frontier):
        vertex = frontier % n
        first = graph.indptr[vertex]
        degree = graph.indptr[vertex + 1] - first
        # the edges out of each frontier pair, in CSR order
        edge = np.repeat(first - (np.cumsum(degree) - degree), degree)
        edge += np.arange(len(edge))
        key = np.repeat(frontier - vertex, degree)
        key += graph.targets[edge]
        d = np.repeat(best[frontier], degree)
        d += graph.lengths[edge]
        # flatnonzero then take: faster than a boolean index on a mixed mask
        better = np.flatnonzero((d < best[key]) & (d <= limit))
        key, d = key[better], d[better]
        # one entry per improved pair, without sorting: one stamp per pair
        # survives the scatter, so exactly one of its candidates matches it
        stamp = np.arange(len(key))
        mark[key] = stamp
        frontier = key[np.flatnonzero(mark[key] == stamp)]
        reached.append(frontier[np.isinf(best[frontier])])
        np.minimum.at(best, key, d)
    return np.concatenate(reached)


# --- OFF file I/O ------------------------------------------------------------

def load_mesh(path) -> TriangulatedManifold:
    """Read a mesh from an ASCII OFF file.

    Only triangular faces are accepted. Edge lengths default to the embedded
    Euclidean lengths; weights are left uncomputed.
    """
    with open(path) as fh:
        text = fh.read()
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = text.split()
    if not tokens or tokens[0].upper() != "OFF":
        raise ValueError(f"{path}: missing OFF header")
    tokens = tokens[1:]
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
        if nv < 0 or nf < 0:
            raise ValueError("negative element count")
        pos = 3  # skip edge count
        verts = np.array(tokens[pos:pos + 3 * nv], dtype=float).reshape(nv, 3)
        pos += 3 * nv
        # each face is "3 i j k"; a face of another size ends the parse below
        faces = np.array(tokens[pos:pos + 4 * nf], dtype=np.int64).reshape(nf, 4)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed OFF file ({exc})") from exc
    other = faces[:, 0] != 3
    if other.any():
        k = faces[np.argmax(other), 0]
        raise ValueError(f"{path}: non-triangular face with {k} vertices")
    try:
        m = TriangulatedManifold(verts, np.ascontiguousarray(faces[:, 1:]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    m._warn_if_disconnected(f"{path}: mesh is disconnected")
    return m


def off_text(m: TriangulatedManifold) -> str:
    nv, nf = m.n_vertices, len(m.triangles)
    return (
        f"OFF\n{nv} {nf} 0\n"
        + "%.17g %.17g %.17g\n" * nv % tuple(m.vertices.ravel().tolist())
        + "3 %d %d %d\n" * nf % tuple(m.triangles.ravel().tolist())
    )


def save_off(m: TriangulatedManifold, path) -> None:
    with open(path, "w") as fh:
        fh.write(off_text(m))


# --- distance-matrix cache ---------------------------------------------------

def distance_cache_chunks(m: TriangulatedManifold) -> Iterator[bytes | memoryview]:
    """The mesh's all-pairs shortest-path distances as little-endian binary:
    uint64 vertex count followed by the row-major float64 n x n matrix,
    ``inf`` across disconnected parts.

    The rows come a block at a time, each a view of the search's buffer that
    the next block overwrites, so no n x n array is made: write each chunk
    before drawing the next.
    """
    yield struct.pack("<Q", m.n_vertices)
    for _, _, best, _ in m._graph().search_blocks(np.inf):
        yield memoryview(best.astype("<f8", copy=False)).cast("B")


def load_distance_cache(path, limit: float = np.inf) -> DistanceRows:
    """Read a cache of ``distance_cache_chunks``.

    Returns the ``DistanceRows`` of the entries up to ``limit``, as
    ``TriangulatedManifold.compute_distances(limit=limit)`` returns them:
    ``inf`` entries are left out, as the search leaves them out. The file is
    read a block of rows at a time, so no n x n array is made beside the rows.
    """
    with open(path, "rb") as fh:
        raw = fh.read(8)
        if len(raw) < 8:
            raise ValueError(f"{path}: truncated distance cache")
        (n,) = struct.unpack("<Q", raw)
        size = os.fstat(fh.fileno()).st_size - 8
        if size != 8 * n * n:
            raise ValueError(f"{path}: expected {n * n} entries, found {size / 8:g}")

        def block_rows(start, stop):  # flat, as from_blocks reads them
            return np.fromfile(fh, dtype="<f8", count=(stop - start) * n)

        return DistanceRows.from_dense_blocks(
            n, block_rows, lambda block: np.isfinite(block) & (block <= limit)
        )


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


def memory_limit() -> int:
    """The most bytes one command's largest structure may need: half of
    physical memory, or half of the soft address-space limit when lower."""
    limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    return limit // 2


def check_memory(what: str, need: int, limit: int, advice="", error=ValueError) -> None:
    """Raise ``error`` if ``what`` would need ``need`` bytes, past ``limit``,
    the caller's ``memory_limit()``; ``advice`` ends the message."""
    if need > limit:
        raise error(
            f"{what} would need up to {need / 1e6:,.1f} MB, over the limit of {limit / 1e6:,.1f} "
            f"MB (half of physical memory or of the address-space limit){advice}"
        )


def icosphere_bytes(order: int) -> int:
    """An upper bound on the bytes that ``build_icosphere(order)`` and then
    ``off_text`` of its mesh, encoded, hold at their peak: 600 per vertex.
    The tracemalloc peak of the two reads 487-500 bytes per vertex for the
    build and 537-545 for the text at orders 25 to 400."""
    return 600 * (10 * order**2 + 2)


def build_icosphere(order: int, radius: float = 1.0) -> TriangulatedManifold:
    """Icosahedron-based tessellation of the sphere.

    Each of the 20 icosahedron faces is split into ``order**2`` triangles by
    barycentric subdivision and the new vertices are projected radially onto
    the sphere. Vertices shared between faces are merged (a corner or edge
    point has one key whichever face reaches it), giving exactly
    ``10*order**2 + 2`` vertices and ``20*order**2`` faces. Vertices are
    numbered by first appearance over the faces, then i, then j of each
    face's grid, and take their point from that appearance.
    """
    if order < 1:
        raise ValueError("icosphere order must be a positive integer")
    if not 0 < radius < np.inf:  # also rejects nan
        raise ValueError(f"icosphere radius must be positive and finite, got {radius}")
    n = int(order)
    # a face's grid points (i, j), i + j <= n, by i then j; row i starts at
    # i(n + 1) - i(i - 1)/2
    i = np.repeat(np.arange(n + 1), np.arange(n + 1, 0, -1))
    j = np.arange(len(i)) - (i * (n + 1) - i * (i - 1) // 2)
    a, b, c = (_ICO_FACES[:, k, None] for k in range(3))
    pa, pb, pc = (_ICO_VERTICES[_ICO_FACES[:, k], None, :] for k in range(3))
    points = ((n - i - j)[:, None] * pa + i[:, None] * pb + j[:, None] * pc) / n

    # a point on an edge is s steps from p towards q: a-b (j = 0), then a-c
    # (i = 0), then b-c; its key counts from the lower corner, and the
    # corners (0 or n steps) key as their vertex
    on_ab, on_ac = j == 0, i == 0
    p = np.where(on_ab | on_ac, a, b)
    q = np.where(on_ab, b, c)
    s = np.where(on_ab, i, j)
    lo, hi, t = np.minimum(p, q), np.maximum(p, q), np.where(p < q, s, n - s)
    nc = len(_ICO_VERTICES)
    key = nc + (lo * nc + hi) * (n + 1) + t
    key = np.where(t == 0, lo, np.where(t == n, hi, key))
    face = np.arange(len(_ICO_FACES))[:, None]
    face_key = (face * (n + 1) + i) * (n + 1) + j + nc * (nc + 1) * (n + 1)
    key = np.where(on_ab | on_ac | (i + j == n), key, face_key)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    number = np.argsort(np.argsort(first))  # the rank of each first appearance
    local = number[inverse].reshape(len(_ICO_FACES), -1)
    P = points.reshape(-1, 3)[np.sort(first)]
    # the matmul, unlike norm(axis=1), sums each vertex's squares as
    # norm(point) does, to the last bit
    coords = P / np.sqrt(P[:, None, :] @ P[:, :, None])[:, 0] * radius

    # the "up" triangle at each (i, j) with i + j < n, then the "down" one
    # where i + j < n - 1; (i + 1, j) is n + 1 - i positions after (i, j)
    u = np.flatnonzero(i + j < n)
    below = u + n + 1 - i[u]
    down = i[u] + j[u] < n - 1
    cells = np.stack([u, below, u + 1, below, below + 1, u + 1], axis=1).reshape(-1, 3)
    cells = cells[np.column_stack([np.ones_like(down), down]).ravel()]
    return TriangulatedManifold(coords, local[:, cells].reshape(-1, 3))
