import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from ballwise.domain import (
    AdjustmentBall,
    ProductDomain,
    ball_weight,
    circle_component,
    enumerate_component_balls,
    enumerate_family,
    interval_component,
    mesh_component,
)
from ballwise.mesh import TriangulatedManifold, build_icosphere


def brute_force_supports(grid, radii_probe=None):
    """Oracle: all distinct ball supports {d(center, .) < r} over every center
    and a dense sweep of admissible radii."""
    supports = set()
    cap = grid.radius_cap
    for center in range(grid.size):
        d = grid.distances[center]
        candidates = sorted(set(d[d > 0].tolist()))
        probes = []
        for v in candidates:
            if v <= cap:
                probes.append(v)
                probes.append(v * 0.999999)
        probes.append(cap if math.isfinite(cap) else max(candidates, default=0) + 1)
        for r in probes:
            if r <= 0 or r > cap:
                continue
            supports.add(frozenset(np.nonzero(d < r)[0].tolist()))
    supports.discard(frozenset())
    return supports


def reference_component_balls(grid):
    """Oracle: the full-row enumeration loop, which needs every distance.

    Argsorts each whole row and walks all its prefix boundaries up to the cap.
    """
    cap = grid.radius_cap
    seen = {}
    for center in range(grid.size):
        d = grid.distances[center]
        order = np.argsort(d, kind="stable").astype(np.int32)
        sorted_d = d[order]
        with np.errstate(invalid="ignore"):  # inf - inf between unreached pairs
            boundaries = np.nonzero(np.diff(sorted_d) > 0)[0] + 1
        for k in boundaries:
            radius = float(sorted_d[k])
            inner = float(sorted_d[k - 1])
            if radius > cap:
                if inner < cap < radius:
                    radius = float(cap)
                else:
                    break
            support = np.sort(order[:k])
            key = support.tobytes()
            if key not in seen:
                seen[key] = (center, radius, inner, support)
        full_inner = float(sorted_d[-1])
        if full_inner < cap:
            radius = full_inner + 1.0 if math.isinf(cap) else float(cap)
            support = np.sort(order)
            key = support.tobytes()
            if key not in seen:
                seen[key] = (center, radius, full_inner, support)
    return list(seen.values())


def reference_weight_matrix(fam):
    """Oracle: one CSR row per ball from its own support indices and weights."""
    rows = [(b.support_indices(), b.support_weights()) for b in fam.balls]
    indptr = np.cumsum([0] + [len(idx) for idx, _ in rows])
    return csr_matrix(
        (np.concatenate([w for _, w in rows]), np.concatenate([i for i, _ in rows]), indptr),
        shape=(fam.n_balls, fam.domain.size),
    )


def disconnected_mesh():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 0], [6, 5, 0], [5, 6, 0]], dtype=float
    )
    return TriangulatedManifold(verts, np.array([[0, 1, 2], [3, 4, 5]]))


def family_supports(balls):
    return {frozenset(b.indices.tolist()) for b in balls}


class TestComponentGrids:
    def test_circle_weights_and_distances(self):
        g = circle_component(12, circumference=12.0)
        assert g.total_weight() == pytest.approx(12.0)
        assert g.distances.max() == pytest.approx(6.0)  # half circumference
        np.testing.assert_allclose(g.distances, g.distances.T)

    def test_interval_trapezoid(self):
        g = interval_component(0.0, 2.0, 5)
        np.testing.assert_allclose(g.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
        assert g.total_weight() == pytest.approx(2.0)
        assert g.distances.max() == pytest.approx(2.0)

    def test_mesh_component(self, unit_tetrahedron):
        g = mesh_component(unit_tetrahedron)
        assert g.total_weight() == pytest.approx(np.sqrt(3.0), rel=1e-9)

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            circle_component(3, radius_cap=0.0)


class TestEnumerateComponentBalls:
    def test_three_point_path(self):
        g = interval_component(0.0, 2.0, 3)
        supports = family_supports(enumerate_component_balls(g))
        expected = {
            frozenset(s)
            for s in [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}]
        }
        assert supports == expected

    def test_cap_below_spacing_gives_singletons(self):
        g = interval_component(0.0, 2.0, 3, radius_cap=0.5)
        supports = family_supports(enumerate_component_balls(g))
        assert supports == {frozenset({i}) for i in range(3)}

    @pytest.mark.parametrize("n,circumference", [(12, 12.0), (7, 2 * math.pi)])
    def test_circle_matches_brute_force(self, n, circumference):
        g = circle_component(n, circumference=circumference)
        assert family_supports(enumerate_component_balls(g)) == brute_force_supports(g)

    @pytest.mark.parametrize("cap", [0.9, 1.5, 2.0, math.inf])
    def test_capped_interval_matches_brute_force(self, cap):
        g = interval_component(0.0, 3.0, 4, radius_cap=cap)
        assert family_supports(enumerate_component_balls(g)) == brute_force_supports(g)

    def test_mesh_matches_brute_force(self, octahedron):
        g = mesh_component(octahedron, radius_cap=2.5)
        assert family_supports(enumerate_component_balls(g)) == brute_force_supports(g)

    def test_singletons_always_present(self, octahedron):
        g = mesh_component(octahedron, radius_cap=0.01)
        supports = family_supports(enumerate_component_balls(g))
        assert supports == {frozenset({i}) for i in range(6)}

    def test_cap_monotone_superset(self):
        g_small = interval_component(0.0, 3.0, 4, radius_cap=1.5)
        g_large = interval_component(0.0, 3.0, 4, radius_cap=3.0)
        s_small = family_supports(enumerate_component_balls(g_small))
        s_large = family_supports(enumerate_component_balls(g_large))
        assert s_small <= s_large

    def test_inner_radius_admissibility(self):
        g = interval_component(0.0, 3.0, 4)
        for b in enumerate_component_balls(g):
            assert b.inner_radius < b.radius
            d = g.distances[b.center]
            assert b.inner_radius == pytest.approx(d[b.indices].max())


class TestBoundedEnumeration:
    """Enumeration on rows bounded at the cap equals the full-row oracle."""

    @staticmethod
    def assert_same_balls(balls, reference):
        assert len(balls) == len(reference)
        for b, (center, radius, inner, support) in zip(balls, reference):
            assert (b.center, b.radius, b.inner_radius) == (center, radius, inner)
            assert b.indices.dtype == support.dtype
            np.testing.assert_array_equal(b.indices, support)

    @pytest.mark.parametrize("cap", [0.35, 1.0, math.inf])
    def test_icosphere(self, cap):
        bounded = mesh_component(build_icosphere(4), radius_cap=cap)
        full = build_icosphere(4).compute_distances()
        reference = mesh_component(full, radius_cap=cap)
        if math.isfinite(cap):
            assert np.isinf(bounded.distances).any()
        self.assert_same_balls(
            enumerate_component_balls(bounded), reference_component_balls(reference)
        )

    def test_circle_cap_on_a_distance(self):
        g = circle_component(12, circumference=12.0, radius_cap=2.0)  # 2 steps
        self.assert_same_balls(enumerate_component_balls(g), reference_component_balls(g))

    @pytest.mark.parametrize("cap", [0.5, 1.0, math.inf])
    def test_interval(self, cap):
        g = interval_component(0.0, 3.0, 7, radius_cap=cap)
        self.assert_same_balls(enumerate_component_balls(g), reference_component_balls(g))

    @pytest.mark.parametrize("cap", [1.2, math.inf])
    def test_disconnected_mesh(self, cap):
        with pytest.warns(UserWarning, match="disconnected"):
            g = mesh_component(disconnected_mesh(), radius_cap=cap)
        self.assert_same_balls(enumerate_component_balls(g), reference_component_balls(g))


class TestKroneckerWeightMatrix:
    """The Kronecker-assembled weight matrix equals the per-ball CSR."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: [mesh_component(build_icosphere(3), radius_cap=0.6)],
            lambda: [
                mesh_component(build_icosphere(2), radius_cap=0.8),
                circle_component(6, circumference=6.0, radius_cap=2.0),
            ],
            lambda: [
                mesh_component(build_icosphere(2), radius_cap=0.7),
                circle_component(5, circumference=5.0, radius_cap=1.5),
                interval_component(0.0, 1.0, 4, radius_cap=0.5),
            ],
        ],
        ids=["mesh", "mesh-circle", "mesh-circle-interval"],
    )
    def test_matches_per_ball_rows(self, make):
        fam = enumerate_family(ProductDomain(make()))
        W, ref = fam.weight_matrix, reference_weight_matrix(fam)
        assert W.has_sorted_indices
        np.testing.assert_array_equal(W.indptr, ref.indptr)
        np.testing.assert_array_equal(W.indices, ref.indices)
        assert W.data.tobytes() == ref.data.tobytes()


class TestEnumerateFamily:
    def test_single_factor_matches_component(self):
        g = interval_component(0.0, 2.0, 3)
        d = ProductDomain([g])
        fam = enumerate_family(d)
        assert fam.n_balls == len(enumerate_component_balls(g))

    def test_product_count(self):
        # 2 supports x 3 supports -> 6 product balls
        g1 = interval_component(0.0, 1.0, 2, radius_cap=0.5)  # singletons only
        g2 = interval_component(0.0, 2.0, 3, radius_cap=0.5)
        fam = enumerate_family(ProductDomain([g1, g2]))
        assert fam.n_balls == 6

    def test_mesh_times_circle_brute_force(self, unit_tetrahedron):
        c1 = mesh_component(unit_tetrahedron)
        c2 = circle_component(3)
        fam = enumerate_family(ProductDomain([c1, c2]))
        n1 = len(brute_force_supports(c1))
        n2 = len(brute_force_supports(c2))
        assert fam.n_balls == n1 * n2
        # supports are exact Cartesian products
        seen = set()
        for b in fam.balls:
            key = tuple(sorted(b.support_indices().tolist()))
            assert key not in seen
            seen.add(key)

    def test_memberships_limit(self):
        g = circle_component(12)
        with pytest.raises(ValueError, match="support memberships"):
            enumerate_family(ProductDomain([g]), max_memberships=10)

    def test_every_point_covered_by_singleton(self, octahedron):
        d = ProductDomain([mesh_component(octahedron), circle_component(3)])
        fam = enumerate_family(d)
        singleton_points = {
            int(b.support_indices()[0]) for b in fam.balls if b.size == 1
        }
        assert singleton_points == set(range(d.size))


class TestBallWeight:
    def test_singleton_is_vertex_weight(self, unit_tetrahedron):
        c = mesh_component(unit_tetrahedron)
        d = ProductDomain([c])
        fam = enumerate_family(d)
        for b in fam.balls:
            if b.size == 1:
                v = int(b.support_indices()[0])
                assert ball_weight(b) == pytest.approx(c.weights[v])

    def test_full_domain_is_total_measure(self, unit_tetrahedron):
        c1 = mesh_component(unit_tetrahedron)
        c2 = circle_component(12)
        d = ProductDomain([c1, c2])
        fam = enumerate_family(d)
        full = max(fam.balls, key=lambda b: b.size)
        assert full.size == d.size
        assert ball_weight(full) == pytest.approx(
            c1.total_weight() * c2.total_weight(), rel=1e-12
        )

    def test_tetrahedron_times_one_circle_point(self, unit_tetrahedron):
        c1 = mesh_component(unit_tetrahedron)
        c2 = circle_component(12)
        d = ProductDomain([c1, c2])
        fam = enumerate_family(d)
        target = [
            b for b in fam.balls
            if b.component_balls[0].size == 4 and b.component_balls[1].size == 1
        ]
        assert target
        # mesh edges have length 1 up to rounding, total area sqrt(3)
        assert ball_weight(target[0]) == pytest.approx(
            np.sqrt(3.0) * (2 * np.pi / 12), rel=1e-9
        )

    def test_fubini_product_of_component_weights(self, octahedron):
        c1 = mesh_component(octahedron)
        c2 = circle_component(5)
        d = ProductDomain([c1, c2])
        fam = enumerate_family(d)
        for b in fam.balls:
            per_comp = [
                comp.weights[cb.indices].sum()
                for comp, cb in zip(d.components, b.component_balls)
            ]
            assert ball_weight(b) == per_comp[0] * per_comp[1]
            # and equals the sum of the flattened product weights
            assert b.support_weights().sum() == pytest.approx(
                ball_weight(b), rel=1e-12
            )

    def test_nesting_for_fixed_center(self):
        g = interval_component(0.0, 4.0, 5)
        balls = enumerate_component_balls(g)
        by_center: dict = {}
        for b in balls:
            by_center.setdefault(b.center, []).append(b)
        for center, bs in by_center.items():
            bs.sort(key=lambda b: b.radius)
            for small, large in itertools.combinations(bs, 2):
                assert set(small.indices.tolist()) <= set(large.indices.tolist())


class TestProductDomain:
    def test_grid_size_and_weights(self):
        d = ProductDomain([circle_component(3), interval_component(0, 1, 4)])
        assert d.size == 12
        w = d.grid_weights()
        assert w.shape == (12,)
        assert w.sum() == pytest.approx(2 * math.pi * 1.0, rel=1e-12)

    def test_product_weight_exact(self):
        c1 = circle_component(3)
        c2 = interval_component(0, 1, 4)
        d = ProductDomain([c1, c2])
        w = d.grid_weights().reshape(3, 4)
        for i in range(3):
            for j in range(4):
                assert w[i, j] == c1.weights[i] * c2.weights[j]

    def test_grid_labels_order(self):
        d = ProductDomain([circle_component(2, circumference=2.0), interval_component(0, 1, 2)])
        labels = d.grid_labels()
        assert labels == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
