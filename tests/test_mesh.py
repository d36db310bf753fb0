import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ballwise import mesh
from ballwise.mesh import (
    DistanceRows,
    TriangulatedManifold,
    build_icosphere,
    distance_cache_chunks,
    load_distance_cache,
    load_mesh,
    off_text,
    save_off,
    triangle_area,
)


def save_distance_cache(m, path):
    """Write the cache file of ``m``, each chunk before the next is drawn."""
    with open(path, "wb") as fh:
        for chunk in distance_cache_chunks(m):
            fh.write(chunk)


SINGLE_TRIANGLE_OFF = """OFF
3 1 0
0 0 0
3 0 0
0 4 0
3 0 1 2
"""

TETRAHEDRON_OFF = """OFF
4 4 0
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 1 3
3 0 2 3
3 1 2 3
"""

QUAD_OFF = """OFF
4 1 0
0 0 0
1 0 0
1 1 0
0 1 0
4 0 1 2 3
"""


class TestTriangleArea:
    def test_right_triangle(self):
        assert triangle_area(3, 4, 5) == pytest.approx(6.0)

    def test_equilateral(self):
        # Heron: s = 3, area = sqrt(3 * 1 * 1 * 1)
        assert triangle_area(2, 2, 2) == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_degenerate_collinear(self):
        assert triangle_area(1, 1, 2) == 0.0

    def test_violation_raises(self):
        with pytest.raises(ValueError, match="triangle inequality"):
            triangle_area(1, 1, 3)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            triangle_area(-1, 1, 1)

    def test_tiny_violation_clamps_to_zero(self):
        assert triangle_area(1, 1, 2 + 1e-12) == 0.0


class TestOffIO:
    def test_single_triangle(self, tmp_path):
        path = tmp_path / "tri.off"
        path.write_text(SINGLE_TRIANGLE_OFF)
        m = load_mesh(path)
        assert m.n_vertices == 3
        assert len(m.triangles) == 1
        assert len(m.edges) == 3

    def test_tetrahedron(self, tmp_path):
        path = tmp_path / "tet.off"
        path.write_text(TETRAHEDRON_OFF)
        m = load_mesh(path)
        assert m.n_vertices == 4
        assert len(m.triangles) == 4
        assert len(m.edges) == 6

    def test_quad_face_rejected(self, tmp_path):
        path = tmp_path / "quad.off"
        path.write_text(QUAD_OFF)
        with pytest.raises(ValueError, match="non-triangular"):
            load_mesh(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("3 1 0\n0 0 0\n")
        with pytest.raises(ValueError, match="OFF header"):
            load_mesh(path)

    def test_roundtrip(self, tmp_path, unit_tetrahedron):
        path = tmp_path / "rt.off"
        save_off(unit_tetrahedron, path)
        m = load_mesh(path)
        np.testing.assert_allclose(m.vertices, unit_tetrahedron.vertices)
        np.testing.assert_array_equal(m.triangles, unit_tetrahedron.triangles)

    @pytest.mark.parametrize("order", [1, 5, 25])
    def test_icosphere_roundtrip_is_bitwise(self, tmp_path, order):
        m = build_icosphere(order, radius=2.5)
        path = tmp_path / "ico.off"
        path.write_text(off_text(m))
        loaded = load_mesh(path)
        assert loaded.vertices.tobytes() == m.vertices.tobytes()
        np.testing.assert_array_equal(loaded.triangles, m.triangles)

    def test_signed_zero_and_subnormal_roundtrip(self, tmp_path):
        base = build_icosphere(2)
        v = base.vertices + np.random.default_rng(3).normal(0, 1e-3, base.vertices.shape)
        v[0] = [-0.0, 5e-324, 0.0]
        v[1, 2] = -5e-324
        m = TriangulatedManifold(v, base.triangles)
        path = tmp_path / "jitter.off"
        path.write_text(off_text(m))
        loaded = load_mesh(path)
        assert loaded.vertices.tobytes() == m.vertices.tobytes()
        np.testing.assert_array_equal(loaded.triangles, m.triangles)

    def test_disconnected_warns(self, tmp_path):
        path = tmp_path / "disc.off"
        path.write_text(
            "OFF\n6 2 0\n"
            "0 0 0\n1 0 0\n0 1 0\n"
            "5 5 0\n6 5 0\n5 6 0\n"
            "3 0 1 2\n3 3 4 5\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = load_mesh(path)
            m.compute_distances()
        # one warning for one mesh, from the load
        assert [str(w.message) for w in caught] == [f"{path}: mesh is disconnected"]
        assert 3 not in m.distances.row(0)[0]
        with pytest.raises(ValueError, match="disconnected"):
            m.ball(0, 1.0)


class TestIcosphere:
    @pytest.mark.parametrize("order", [1, 2, 5, 10])
    def test_counts(self, order):
        m = build_icosphere(order)
        assert m.n_vertices == 10 * order ** 2 + 2
        assert len(m.triangles) == 20 * order ** 2

    def test_order_one_is_icosahedron(self):
        m = build_icosphere(1, radius=1.0)
        assert m.n_vertices == 12
        assert len(m.triangles) == 20
        np.testing.assert_allclose(np.linalg.norm(m.vertices, axis=1), 1.0)

    def test_radius_scaling(self):
        m = build_icosphere(3, radius=2.5)
        np.testing.assert_allclose(np.linalg.norm(m.vertices, axis=1), 2.5)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            build_icosphere(0)

    def test_invalid_radius(self):
        with pytest.raises(ValueError, match="positive and finite"):
            build_icosphere(1, radius=0.0)

    @pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(ValueError, match="positive and finite"):
            build_icosphere(1, radius=radius)

    @pytest.mark.parametrize("radius", [1.0, 2.5])
    @pytest.mark.parametrize("order", list(range(1, 13)) + [25, 30])
    def test_matches_the_point_by_point_build(self, order, radius):
        m = build_icosphere(order, radius)
        ref = oracles.icosphere_reference(order, radius)
        assert m.vertices.tobytes() == ref.vertices.tobytes()
        np.testing.assert_array_equal(m.triangles, ref.triangles)
        assert off_text(m) == oracles.off_text_reference(ref)

    def test_no_duplicate_vertices(self):
        m = build_icosphere(4)
        rounded = np.round(m.vertices, 9)
        assert len(np.unique(rounded, axis=0)) == m.n_vertices


class TestWeights:
    def test_single_triangle_thirds(self, tmp_path):
        path = tmp_path / "tri.off"
        path.write_text(SINGLE_TRIANGLE_OFF)
        m = load_mesh(path).compute_weights()
        np.testing.assert_allclose(m.weights, [2.0, 2.0, 2.0])  # area 6 / 3

    def test_unit_tetrahedron(self, unit_tetrahedron):
        m = unit_tetrahedron.compute_weights()
        # 3 incident unit-edge faces per vertex, each of area sqrt(3)/4
        np.testing.assert_allclose(m.weights, np.sqrt(3) / 4, rtol=1e-12)

    @pytest.mark.parametrize("order", [1, 3])
    def test_conservation(self, order):
        m = build_icosphere(order).compute_weights()
        total_area = m.triangle_areas().sum()
        assert m.total_weight() == pytest.approx(total_area, rel=1e-9)

    def test_edge_override_changes_areas(self, triangle_strip, tmp_path):
        m = triangle_strip.compute_weights()
        base_total = m.total_weight()
        override = tmp_path / "lengths.csv"
        lines = [f"{i},{j},{2 * m.edge_length(i, j)}" for i, j in m.edges]
        override.write_text("\n".join(lines) + "\n")
        m.override_edge_lengths(override)
        assert m.weights is None and m.distances is None
        m.compute_weights()
        assert m.total_weight() == pytest.approx(4 * base_total, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 3, 8])
    def test_areas_match_scalar_heron(self, order):
        m = build_icosphere(order)
        expected = [
            triangle_area(m.edge_length(a, b), m.edge_length(b, c), m.edge_length(a, c))
            for a, b, c in m.triangles
        ]
        assert m.triangle_areas().tobytes() == np.array(expected).tobytes()

    def test_degenerate_areas_match_scalar_heron(self):
        # a flat triangle, one flat within DEGENERACY_RTOL, one regular
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0]], float)
        tris = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 4]])
        m = TriangulatedManifold(verts, tris)
        m.edge_lengths[m.edges.tolist().index([1, 3])] = 2.0 + 1e-10  # 1 + 1 + slack
        areas = m.triangle_areas()
        expected = [
            triangle_area(m.edge_length(a, b), m.edge_length(b, c), m.edge_length(a, c))
            for a, b, c in tris
        ]
        assert areas.tobytes() == np.array(expected).tobytes()
        assert areas[0] == areas[1] == 0.0 < areas[2]
        m.edge_lengths[m.edges.tolist().index([1, 3])] = 2.5
        with pytest.raises(ValueError, match=r"triangle #1 \(0,1,3\).*triangle inequality"):
            m.triangle_areas()

    def test_override_unknown_edge_rejected(self, triangle_strip, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,3,1.0\n")
        with pytest.raises(ValueError, match="non-existent edge"):
            triangle_strip.override_edge_lengths(bad)

    @pytest.mark.parametrize("length", ["nan", "inf", "1e400", "-1"])
    def test_override_length_must_be_finite_and_non_negative(
        self, triangle_strip, tmp_path, length
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"0,1,1.0\n1,2,{length}\n")
        with pytest.raises(ValueError, match=r"\(negative or not finite\) for edge \(1, 2\)"):
            triangle_strip.override_edge_lengths(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, value):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float)
        verts[2, 1] = value
        with pytest.raises(ValueError, match=r"vertex 2 is not finite"):
            TriangulatedManifold(verts, [[0, 1, 2]])


def all_pairs(m) -> np.ndarray:
    """The mesh's unbounded distances as an n x n matrix."""
    return oracles.rows_to_dense(m.compute_distances().distances)


class TestDistances:
    def test_path_sum(self, triangle_strip):
        d = all_pairs(triangle_strip)
        assert d[0, 3] == pytest.approx(2.0)

    def test_zero_diagonal(self, octahedron):
        d = all_pairs(octahedron)
        np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_tetrahedron_all_unit(self, unit_tetrahedron):
        d = all_pairs(unit_tetrahedron)
        off = d[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 1.0, rtol=1e-12)

    def test_metric_axioms_exhaustive(self):
        d = all_pairs(build_icosphere(2))
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_array_equal(np.diag(d), 0.0)
        # triangle inequality over all vertex triples
        viol = d[:, None, :] + d[None, :, :] - d[:, :, None]
        assert viol.min() >= -1e-12

    @staticmethod
    def assert_rows_within(rows, full, limit):
        """``rows`` hold exactly the entries of ``full`` up to ``limit``, each
        row by (distance, index)."""
        assert isinstance(rows, DistanceRows)
        inside = full <= limit
        assert np.isfinite(rows.values).sum() == inside.sum()
        bounded = oracles.rows_to_dense(rows)
        np.testing.assert_array_equal(bounded[inside], full[inside])
        assert np.all(np.isinf(bounded[~inside]))
        # padded with the point n at inf, to the longest row
        n, L = rows.indices.shape
        np.testing.assert_array_equal(rows.indices == n, np.isinf(rows.values))
        assert L == inside.sum(axis=1).max()
        row = np.repeat(np.arange(n), L)
        np.testing.assert_array_equal(
            np.lexsort((rows.indices.ravel(), rows.values.ravel(), row)), np.arange(n * L)
        )

    # rows per block: one, seven, and one block larger than the mesh
    BLOCK_ROWS = pytest.mark.parametrize("block_rows", [1, 7, None])

    @pytest.mark.parametrize("limit", ["exact", 0.3, 0.77])
    def test_limit_matches_unbounded_within_limit(self, limit, monkeypatch):
        m = build_icosphere(5)
        full = oracles.dense_dijkstra(m)
        if limit == "exact":  # a limit equal to a realized distance is kept
            limit = float(np.unique(full[0])[7])
        n = m.n_vertices
        assert (full <= limit).sum() > n
        for block_rows in (1, 7, n + 5):
            monkeypatch.setattr(mesh, "DISTANCE_BLOCK", block_rows * n)
            self.assert_rows_within(m.compute_distances(limit=limit).distances, full, limit)

    @BLOCK_ROWS
    def test_bounded_disconnected_mesh(self, block_rows, monkeypatch):
        a, b = build_icosphere(2), build_icosphere(2)
        m = TriangulatedManifold(
            np.concatenate([a.vertices, b.vertices + 5.0]),
            np.concatenate([a.triangles, b.triangles + a.n_vertices]),
        )
        full = oracles.dense_dijkstra(m)
        n = m.n_vertices
        monkeypatch.setattr(mesh, "DISTANCE_BLOCK", (block_rows or n + 5) * n)
        with pytest.warns(UserWarning, match="disconnected"):
            rows = m.compute_distances(limit=0.8).distances
        self.assert_rows_within(rows, full, 0.8)

    @BLOCK_ROWS
    def test_bounded_cache_matches_bounded_search(self, block_rows, monkeypatch, tmp_path):
        m = build_icosphere(3)
        full = oracles.dense_dijkstra(m)
        path = tmp_path / "d.bin"
        path.write_bytes(oracles.cache_bytes(full))
        n = m.n_vertices
        monkeypatch.setattr(mesh, "DISTANCE_BLOCK", (block_rows or n + 5) * n)
        cached = load_distance_cache(path, limit=0.4)
        self.assert_rows_within(cached, full, 0.4)
        searched = m.compute_distances(limit=0.4).distances
        assert oracles.row_arrays(cached) == oracles.row_arrays(searched)

    def test_capped_connected_mesh_does_not_warn(self):
        m = build_icosphere(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m.compute_distances(limit=0.2)
        assert np.isfinite(m.distances.values).sum() < m.n_vertices**2

    def test_search_block_fits_the_mesh(self):
        # one block of every row is 252 x 252 pairs, not DISTANCE_BLOCK of them
        m = build_icosphere(5)
        assert mesh._block_size(m.n_vertices) == m.n_vertices
        tracemalloc.start()
        try:
            m.compute_distances(limit=0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # 16 MB at an unclamped block

    def test_cache_roundtrip(self, octahedron, tmp_path):
        path = tmp_path / "d.bin"
        save_distance_cache(octahedron, path)
        loaded = load_distance_cache(path)
        searched = octahedron.compute_distances().distances
        assert oracles.row_arrays(loaded) == oracles.row_arrays(searched)

    def test_cache_truncated(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x03")
        with pytest.raises(ValueError, match="truncated"):
            load_distance_cache(path)

    @pytest.mark.parametrize("limit", [np.inf, 1.0])
    def test_cache_wrong_size(self, octahedron, tmp_path, limit):
        path = tmp_path / "d.bin"
        save_distance_cache(octahedron, path)
        raw = path.read_bytes()
        for bad in (raw[:-8], raw[:-3], raw + bytes(8)):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="expected 36 entries"):
                load_distance_cache(path, limit=limit)

    def test_cache_file_is_the_matrix_bytes(self, octahedron, tmp_path):
        path = tmp_path / "d.bin"
        save_distance_cache(octahedron, path)
        assert path.read_bytes() == oracles.cache_bytes(oracles.dense_dijkstra(octahedron))

    def test_disconnected_cache_keeps_inf(self, tmp_path):
        a, b = build_icosphere(1), build_icosphere(2)
        m = TriangulatedManifold(
            np.concatenate([a.vertices, b.vertices + 5.0]),
            np.concatenate([a.triangles, b.triangles + a.n_vertices]),
        )
        path = tmp_path / "d.bin"
        save_distance_cache(m, path)
        full = oracles.dense_dijkstra(m)
        assert np.isinf(full).any()
        assert path.read_bytes() == oracles.cache_bytes(full)
        loaded = load_distance_cache(path)  # inf entries are left out
        assert oracles.row_arrays(loaded) == oracles.row_arrays(oracles.dense_to_rows(full))


@st.composite
def weighted_meshes(draw):
    """A jittered icosphere with some edge lengths overridden (zero, scaled,
    or rounded to sixteenths so that distinct paths tie), and optionally
    some of its triangles dropped, which can disconnect it."""
    base = build_icosphere(draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    triangles = base.triangles
    if draw(st.booleans()):
        triangles = triangles[rng.random(len(triangles)) < draw(st.floats(0.5, 1.0))]
    m = TriangulatedManifold(
        base.vertices + rng.normal(0.0, 0.03, base.vertices.shape), triangles
    )
    n_edges = len(m.edges)
    scaled = rng.random(n_edges) < draw(st.floats(0.0, 1.0))
    m.edge_lengths[scaled] *= rng.uniform(0.0, 2.0, scaled.sum())
    if draw(st.booleans()):
        m.edge_lengths[:] = np.round(m.edge_lengths * 16) / 16
    zero = rng.choice(n_edges, min(n_edges, draw(st.integers(0, 12))), replace=False)
    m.edge_lengths[zero] = 0.0
    return m


class TestAgainstDijkstra:
    """The numpy search equals scipy's Dijkstra bit for bit: every array of
    the rows, bounded or not, and the matrix the cache writer produces."""

    @staticmethod
    def assert_matches(m, limit, block_rows=None):
        full = oracles.dense_dijkstra(m)
        disconnected = bool(np.isinf(full).any())
        n = m.n_vertices
        with mock.patch.object(mesh, "DISTANCE_BLOCK", (block_rows or n + 5) * n):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for bound in (np.inf, limit):
                    d = m.compute_distances(limit=bound).distances
                    assert oracles.row_arrays(d) == oracles.row_arrays(
                        oracles.dense_to_rows(full, bound)
                    )
            # a disconnected mesh warns once, however often it is searched
            warned = sum("disconnected" in str(w.message) for w in caught)
            assert warned == disconnected
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "d.bin")
                save_distance_cache(m, path)
                with open(path, "rb") as fh:
                    assert fh.read() == oracles.cache_bytes(full)

    @given(
        m=weighted_meshes(),
        limit=st.one_of(st.floats(0.0, 3.0), st.integers(0, 200)),
        block_rows=st.sampled_from([1, 7, None]),
    )
    @settings(max_examples=40, deadline=None)
    def test_jittered_meshes(self, m, limit, block_rows):
        if isinstance(limit, int):  # a limit equal to a realized distance
            realized = np.unique(oracles.dense_dijkstra(m))
            limit = float(realized[limit % len(realized)])
        self.assert_matches(m, limit, block_rows)

    @pytest.mark.parametrize("block_rows", [1, 7, None])
    def test_disconnected_icospheres(self, block_rows, tmp_path):
        a, b = build_icosphere(2), build_icosphere(3)
        m = TriangulatedManifold(
            np.concatenate([a.vertices, b.vertices + 5.0]),
            np.concatenate([a.triangles, b.triangles + a.n_vertices]),
        )
        limit = float(np.unique(oracles.dense_dijkstra(m)[0])[5])
        self.assert_matches(m, limit, block_rows)
        save_off(m, tmp_path / "two.off")
        with pytest.warns(UserWarning, match="disconnected"):
            load_mesh(tmp_path / "two.off")

    @pytest.mark.slow
    def test_order16_full_cap(self):
        m = build_icosphere(16)
        d = m.compute_distances().distances
        rows = oracles.dense_to_rows(oracles.dense_dijkstra(m))
        assert oracles.row_arrays(d) == oracles.row_arrays(rows)


class TestBall:
    def test_full_cover(self, unit_tetrahedron):
        m = unit_tetrahedron.compute_distances()
        assert len(m.ball(0, 10.0)) == 4

    def test_strictness(self, unit_tetrahedron):
        # radius equal to the smallest positive distance keeps only the center
        m = unit_tetrahedron.compute_distances()
        d = m.distances.row(2)[1]
        r = d[d > 0].min()
        np.testing.assert_array_equal(m.ball(2, r), [2])

    def test_tetrahedron_r_1_5(self, unit_tetrahedron):
        m = unit_tetrahedron.compute_distances()
        np.testing.assert_array_equal(m.ball(1, 1.5), [0, 1, 2, 3])

    def test_invalid_center(self, unit_tetrahedron):
        m = unit_tetrahedron.compute_distances()
        with pytest.raises(IndexError):
            m.ball(7, 1.0)

    def test_bounded_distances(self):
        full = build_icosphere(4).compute_distances()
        bounded = build_icosphere(4).compute_distances(limit=0.5)
        for r in (0.2, 0.5):
            np.testing.assert_array_equal(bounded.ball(3, r), full.ball(3, r))
        with pytest.raises(ValueError, match="distance limit"):
            bounded.ball(3, 0.6)

    def test_monotone_in_radius(self, octahedron):
        m = octahedron.compute_distances()
        radii = np.linspace(0.1, 3.0, 15)
        for center in range(m.n_vertices):
            prev: set = set()
            for r in radii:
                cur = set(m.ball(center, r).tolist())
                assert prev <= cur
                prev = cur


class TestInvariants:
    def test_triangle_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            TriangulatedManifold(np.zeros((3, 3)), np.array([[0, 1, 1]]))

    def test_triangle_bad_index_rejected(self):
        with pytest.raises(ValueError, match="invalid vertex index"):
            TriangulatedManifold(np.zeros((3, 3)), np.array([[0, 1, 5]]))
