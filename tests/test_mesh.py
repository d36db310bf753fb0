import warnings

import numpy as np
import pytest

from ballwise.mesh import (
    TriangulatedManifold,
    build_icosphere,
    load_distance_cache,
    load_mesh,
    save_distance_cache,
    save_off,
    triangle_area,
)

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

    def test_disconnected_warns(self, tmp_path):
        path = tmp_path / "disc.off"
        path.write_text(
            "OFF\n6 2 0\n"
            "0 0 0\n1 0 0\n0 1 0\n"
            "5 5 0\n6 5 0\n5 6 0\n"
            "3 0 1 2\n3 3 4 5\n"
        )
        with pytest.warns(UserWarning, match="disconnected"):
            m = load_mesh(path)
        with pytest.warns(UserWarning, match="disconnected"):
            m.compute_distances()
        assert np.isinf(m.distances[0, 3])
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
        with pytest.raises(ValueError):
            build_icosphere(1, radius=0.0)

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

    def test_override_unknown_edge_rejected(self, triangle_strip, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,3,1.0\n")
        with pytest.raises(ValueError, match="non-existent edge"):
            triangle_strip.override_edge_lengths(bad)


class TestDistances:
    def test_path_sum(self, triangle_strip):
        d = triangle_strip.compute_distances().distances
        assert d[0, 3] == pytest.approx(2.0)

    def test_zero_diagonal(self, octahedron):
        d = octahedron.compute_distances().distances
        np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_tetrahedron_all_unit(self, unit_tetrahedron):
        d = unit_tetrahedron.compute_distances().distances
        off = d[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 1.0, rtol=1e-12)

    def test_metric_axioms_exhaustive(self):
        m = build_icosphere(2).compute_distances()
        d = m.distances
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_array_equal(np.diag(d), 0.0)
        # triangle inequality over all vertex triples
        viol = d[:, None, :] + d[None, :, :] - d[:, :, None]
        assert viol.min() >= -1e-12

    def test_allowed_vertices_restriction(self, unit_tetrahedron):
        m = unit_tetrahedron
        with pytest.warns(UserWarning, match="disconnected"):
            m.compute_distances(allowed_vertices=[0, 1, 2])
        assert m.distances[0, 1] == pytest.approx(1.0)
        assert np.isinf(m.distances[0, 3])

    @pytest.mark.parametrize("limit", ["exact", 0.3, 0.77])
    def test_limit_matches_unbounded_within_limit(self, limit):
        full = build_icosphere(5).compute_distances().distances
        if limit == "exact":  # a limit equal to a realized distance is kept
            limit = float(np.unique(full[0])[7])
        bounded = build_icosphere(5).compute_distances(limit=limit).distances
        inside = full <= limit
        assert inside.sum() > full.shape[0]
        np.testing.assert_array_equal(bounded[inside], full[inside])
        assert np.all(np.isinf(bounded[~inside]))

    def test_capped_connected_mesh_does_not_warn(self):
        m = build_icosphere(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m.compute_distances(limit=0.2)
        assert np.isinf(m.distances).any()

    def test_cache_roundtrip(self, octahedron, tmp_path):
        d = octahedron.compute_distances().distances
        path = tmp_path / "d.bin"
        save_distance_cache(d, path)
        np.testing.assert_array_equal(load_distance_cache(path), d)

    def test_cache_truncated(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x03")
        with pytest.raises(ValueError, match="truncated"):
            load_distance_cache(path)


class TestBall:
    def test_full_cover(self, unit_tetrahedron):
        m = unit_tetrahedron.compute_distances()
        assert len(m.ball(0, 10.0)) == 4

    def test_strictness(self, unit_tetrahedron):
        # radius equal to the smallest positive distance keeps only the center
        m = unit_tetrahedron.compute_distances()
        r = m.distances[2][m.distances[2] > 0].min()
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
