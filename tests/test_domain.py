import itertools
import math
import os
import resource
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import oracles
from ballwise import domain, permute
from ballwise.domain import (
    FamilyTooLargeError,
    ProductDomain,
    circle_component,
    enumerate_component_balls,
    enumerate_family,
    interval_component,
    mesh_component,
)
from ballwise.glm import StatKernel
from ballwise.mesh import TriangulatedManifold, build_icosphere
from oracles import (
    admissible_mask,
    ball_list,
    ball_weight,
    integrated_stat,
    product_ball,
    support_indices,
    support_weights,
    total_weight,
    weight_matrix,
)


def brute_force_supports(grid, radii_probe=None):
    """Oracle: all distinct ball supports {d(center, .) < r} over every center
    and a dense sweep of admissible radii."""
    supports = set()
    cap = grid.radius_cap
    D = oracles.distances(grid)
    for center in range(grid.size):
        d = D[center]
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
    Keeps the first center of each support and its radius, and the least
    inner radius of any center that realizes the support.
    """
    cap = grid.radius_cap
    D = oracles.distances(grid)
    seen = {}

    def keep(center, radius, inner, support):
        key = support.tobytes()
        if key not in seen:
            seen[key] = (center, radius, inner, support)
        elif inner < seen[key][2]:
            seen[key] = (seen[key][0], seen[key][1], inner, support)

    for center in range(grid.size):
        d = D[center]
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
            keep(center, radius, inner, np.sort(order[:k]))
        full_inner = float(sorted_d[-1])
        if full_inner < cap:
            radius = full_inner + 1.0 if math.isinf(cap) else float(cap)
            keep(center, radius, full_inner, np.sort(order))
    return list(seen.values())


def reference_weight_matrix(fam):
    """Oracle: one CSR row per ball from its own support indices and weights."""
    rows = [
        (support_indices(fam, k), support_weights(fam, k)) for k in range(fam.n_balls)
    ]
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
    return {frozenset(b.indices.tolist()) for b in ball_list(balls)}


class TestComponentGrids:
    def test_circle_weights_and_distances(self):
        g = circle_component(12, circumference=12.0)
        assert total_weight(g) == pytest.approx(12.0)
        d = oracles.rows_to_dense(g.rows)  # no cap: every pair is in a row
        assert d.max() == pytest.approx(6.0)  # half circumference
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(d, oracles.distances(g))

    def test_interval_trapezoid(self):
        g = interval_component(0.0, 2.0, 5)
        np.testing.assert_allclose(g.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
        assert total_weight(g) == pytest.approx(2.0)
        assert oracles.rows_to_dense(g.rows).max() == pytest.approx(2.0)

    def test_mesh_component(self, unit_tetrahedron):
        g = mesh_component(unit_tetrahedron)
        assert total_weight(g) == pytest.approx(np.sqrt(3.0), rel=1e-9)

    def test_full_cap_mesh_component_keeps_one_copy(self):
        m = build_icosphere(3)
        rows = m.compute_distances()
        g = mesh_component(m, rows=rows)
        assert g.rows is rows
        assert g.rows.values.shape == (m.n_vertices, m.n_vertices)
        assert np.isfinite(g.rows.values).all()
        capped = mesh_component(m, radius_cap=0.4, rows=rows)
        assert capped.rows is not rows
        assert capped.rows.values[np.isfinite(capped.rows.values)].max() < 0.4

    @pytest.mark.parametrize("cap", [0.4, 1.0, math.inf])
    def test_given_rows_match_the_search_to_the_cap(self, cap):
        # rows read or searched past the cap are cut to the rows of a search
        # that stops at it
        m = build_icosphere(3)
        given = mesh_component(m, radius_cap=cap, rows=m.compute_distances())
        searched = mesh_component(m, radius_cap=cap)
        assert oracles.row_arrays(given.rows) == oracles.row_arrays(searched.rows)

    def test_bad_cap(self):
        for cap in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                circle_component(3, radius_cap=cap)

    def test_parameters_that_give_no_positive_finite_weights(self):
        # a circle's or an interval's weights follow from its parameters,
        # so these are refused before any weight is made
        for circumference in (0.0, -1.0, math.inf, math.nan, 5e-324):
            with pytest.raises(ValueError, match="circumference must be positive and finite"):
                circle_component(3, circumference=circumference)
        for a, b in ((1.0, 0.0), (0.0, 0.0), (0.0, math.inf), (-math.inf, 0.0),
                     (math.nan, 1.0), (-1e308, 1e308), (0.0, 5e-324)):
            with pytest.raises(ValueError, match="interval must have finite bounds with b > a"):
                interval_component(a, b, 3)


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

    @pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.1, 0.7), (-3.0, 5.0), (1e-3, 1e3)])
    @pytest.mark.parametrize("n, count", [(6, 17), (20, 129)])
    def test_interval_supports_are_index_windows(self, bounds, n, count):
        # distances are whole steps, so no rounding of the bounds splits a tie
        windows = {
            frozenset(range(max(0, i - k), min(n - 1, i + k) + 1))
            for i in range(n) for k in range(n)
        }
        assert len(windows) == count
        g = interval_component(*bounds, n)
        assert family_supports(enumerate_component_balls(g)) == windows

    def test_mesh_matches_brute_force(self, octahedron):
        g = oracles.mesh_grid(octahedron, radius_cap=2.5)
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
        D = oracles.distances(g)
        for b in ball_list(enumerate_component_balls(g)):
            assert b.inner_radius < b.radius
            # each center whose closed ball of its farthest support distance
            # is exactly the support realizes it with that distance
            realized = [
                D[c, b.indices].max() for c in range(g.size)
                if np.array_equal(np.flatnonzero(D[c] <= D[c, b.indices].max()), b.indices)
            ]
            assert D[b.center, b.indices].max() in realized
            assert b.inner_radius == min(realized)


class TestBoundedEnumeration:
    """Enumeration on rows bounded at the cap equals the full-row oracle."""

    @staticmethod
    def assert_same_balls(balls, reference):
        assert len(balls) == len(reference)
        for b, (center, radius, inner, support) in zip(ball_list(balls), reference):
            assert (b.center, b.radius, b.inner_radius) == (center, radius, inner)
            assert b.indices.dtype == support.dtype
            np.testing.assert_array_equal(b.indices, support)

    @pytest.mark.parametrize("cap", [0.35, 1.0, math.inf])
    def test_icosphere(self, cap):
        bounded = mesh_component(build_icosphere(4), radius_cap=cap)
        reference = oracles.mesh_grid(build_icosphere(4), radius_cap=cap)
        if math.isfinite(cap):
            assert np.isfinite(bounded.rows.values).sum() < bounded.size**2
        self.assert_same_balls(
            enumerate_component_balls(bounded), reference_component_balls(reference)
        )

    def test_capped_order25_holds_no_dense_matrix(self):
        # the order-25 icosphere's n x n float64 distances alone are 298 MiB
        m = build_icosphere(25).compute_weights()
        tracemalloc.start()
        try:
            balls = enumerate_component_balls(mesh_component(m, radius_cap=0.06))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(balls) == 42_510
        assert peak < 64 * 2**20

    def test_full_cap_peak_within_three_times_the_output(self):
        # 314,481 balls; candidates are deduplicated one size at a time
        g = mesh_component(build_icosphere(8))
        tracemalloc.start()
        try:
            balls = enumerate_component_balls(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = (balls.order, balls.kept, balls.inner[balls.kept])
        assert peak <= 3 * sum(a.nbytes for a in output)

    @pytest.mark.slow
    def test_full_cap_order16_peak_within_2_3_slot_grids(self):
        # 5,961,058 balls; the balls read the rows' own indices, so the peak,
        # measured at 2.14 of the 2562 x 2562 slot grid's 50 MiB, is the inner
        # radii (one grid) and the dedup's transients
        g = mesh_component(build_icosphere(16))
        tracemalloc.start()
        try:
            balls = enumerate_component_balls(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(balls) == 5_961_058
        assert peak <= 2.3 * 8 * g.size**2

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
            g = oracles.mesh_grid(disconnected_mesh(), radius_cap=cap)
        self.assert_same_balls(enumerate_component_balls(g), reference_component_balls(g))


PRODUCT_DOMAINS = pytest.mark.parametrize(
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


class TestKroneckerWeightMatrix:
    """The oracles' Kronecker-assembled weight matrix equals the per-ball CSR,
    and the per-component operators integrate with exactly its weights."""

    @PRODUCT_DOMAINS
    def test_matches_per_ball_rows(self, make):
        fam = enumerate_family(ProductDomain(make()))
        W, ref = weight_matrix(fam), reference_weight_matrix(fam)
        assert W.has_sorted_indices
        np.testing.assert_array_equal(W.indptr, ref.indptr)
        np.testing.assert_array_equal(W.indices, ref.indices)
        assert W.data.tobytes() == ref.data.tobytes()
        assert fam.n_memberships == ref.nnz
        # the unit fields integrate to each ball's point weights; products of
        # three weights may associate differently, hence the 1e-15
        dense = fam.ball_values(fam.integrated_slots(np.eye(fam.domain.size)))
        np.testing.assert_array_equal(dense != 0, ref.toarray() != 0)
        np.testing.assert_allclose(dense, ref.toarray(), rtol=1e-15, atol=0)


def quiet_disconnected(cap=math.inf):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return oracles.mesh_grid(disconnected_mesh(), radius_cap=cap)


def mesh_cap_on_a_distance():
    """Octahedron with its cap equal to a realised geodesic distance."""
    m = build_icosphere(1)
    cap = float(np.unique(m.compute_distances().values)[2])
    return oracles.mesh_grid(m, radius_cap=cap)


OPERATOR_DOMAINS = pytest.mark.parametrize(
    "make",
    [
        lambda: [oracles.mesh_grid(build_icosphere(2), radius_cap=0.7)],
        lambda: [oracles.mesh_grid(build_icosphere(2))],
        # at the default budget a stack of 248 fields tiles all 92 rows two
        # positions at a time
        lambda: [oracles.mesh_grid(build_icosphere(3))],
        lambda: [mesh_cap_on_a_distance()],
        lambda: [quiet_disconnected(1.2)],
        # ties on both sides of every center; the cap is 2 steps exactly
        lambda: [circle_component(12, circumference=12.0, radius_cap=2.0)],
        lambda: [interval_component(0.0, 3.0, 7, radius_cap=1.0)],
        lambda: [
            oracles.mesh_grid(build_icosphere(1), radius_cap=1.2),
            circle_component(12, circumference=12.0),
        ],
        lambda: [
            circle_component(12, circumference=12.0, radius_cap=2.5),
            interval_component(0.0, 1.0, 4),
            quiet_disconnected(),
        ],
        # the circle's rows are the longest, so it is integrated last though
        # it is the domain's first component
        lambda: [
            circle_component(12, circumference=12.0),
            interval_component(0.0, 3.0, 7, radius_cap=1.0),
        ],
    ],
    ids=[
        "mesh-cap", "mesh-inf", "mesh-inf-order-3", "mesh-cap-on-distance", "disconnected",
        "circle-ties", "interval", "mesh-circle", "circle-interval-disconnected",
        "circle-first-interval",
    ],
)


DEFAULT_TILING = domain.TILE_VALUES


def tilings(fam, n_fields):
    """Tile budgets (``TILE_VALUES``) for the last integrated pass of
    ``n_fields`` stacked fields, r values a position: one row and one
    position per tile, so every sum carries from span to span; blocks of
    n - 1 rows, the first ending inside the grid; every row in spans of two
    positions, each carrying its running sum into the next; and one tile for
    the whole grid."""
    *axes, last = fam._integration_axes()
    n, L = fam.component_balls[last].inner.shape
    r = n_fields * math.prod(len(fam.component_balls[c]) for c in axes)
    return [1, (n - 1) * r, 2 * n * r, n * L * r]


def last_pass_tiles(fam, monkeypatch):
    """The (top, p0, block shape) of each tile the last integrated pass
    yields, as a list that later calls append to."""
    last = fam.component_balls[fam._integration_axes()[-1]]
    prefix_blocks, tiles = domain.ComponentBalls._prefix_blocks, []

    def spy(balls, values):
        for top, p0, block in prefix_blocks(balls, values):
            if balls is last:
                tiles.append((top, p0, block.shape))
            yield top, p0, block

    monkeypatch.setattr(domain.ComponentBalls, "_prefix_blocks", spy)
    return tiles


class TestPrefixOperators:
    """Integration and the covering max through the per-component operators
    equal the per-ball oracles."""

    @OPERATOR_DOMAINS
    def test_enumeration_matches_loop(self, make):
        for g in make():
            TestBoundedEnumeration.assert_same_balls(
                enumerate_component_balls(g), oracles.component_balls_loop(g)
            )

    @OPERATOR_DOMAINS
    def test_balls_read_the_rows_in_place(self, make):
        # a mesh's, a circle's and an interval's balls hold no copy of the
        # sorted rows they are prefixes of
        for g in make():
            balls = enumerate_component_balls(g)
            assert balls.order is g.rows.indices
            assert np.shares_memory(balls.order, g.rows.indices)

    @OPERATOR_DOMAINS
    def test_table_of_shuffled_and_repeated_ids(self, make):
        rng = np.random.default_rng(9)
        for g in make():
            balls = enumerate_component_balls(g)
            listed = ball_list(balls)
            ids = np.concatenate(
                [rng.permutation(len(balls)), rng.integers(0, len(balls), 20)]
            )
            centers, radii, inner = balls.table(ids)
            assert list(zip(centers.tolist(), radii.tolist(), inner.tolist())) == [
                (listed[b].center, listed[b].radius, listed[b].inner_radius) for b in ids
            ]
            assert all(len(column) == 0 for column in balls.table([]))

    @OPERATOR_DOMAINS
    def test_forced_hash_collisions(self, make, monkeypatch):
        # every support of one size collides, then only some do
        for keys in (
            lambda n: np.zeros(n, dtype=np.uint64),
            lambda n: np.arange(n, dtype=np.uint64) % np.uint64(3),
        ):
            monkeypatch.setattr(domain, "_zobrist_keys", keys)
            for g in make():
                TestBoundedEnumeration.assert_same_balls(
                    enumerate_component_balls(g), oracles.component_balls_loop(g)
                )

    @OPERATOR_DOMAINS
    def test_integrated_stats(self, make):
        fam = enumerate_family(ProductDomain(make()))
        rng = np.random.default_rng(3)
        fields = rng.random((5, fam.domain.size))
        stacked = fam.ball_values(fam.integrated_slots(fields))
        assert stacked.shape == (fam.n_balls, 5)
        for i, T in enumerate(fields):
            single = fam.ball_values(fam.integrated_slots(T))
            assert single.shape == (fam.n_balls,)
            # element by element: the same bytes however the fields are stacked
            assert single.tobytes() == stacked[:, i].tobytes()
            expected = [integrated_stat(T, fam, k) for k in range(fam.n_balls)]
            # a different summation order than the per-ball sum
            np.testing.assert_allclose(single, expected, rtol=1e-13, atol=0)

    @OPERATOR_DOMAINS
    def test_row_tiles(self, make, monkeypatch):
        fam = enumerate_family(ProductDomain(make()))
        fields = np.random.default_rng(5).random((3, fam.domain.size))
        whole = fam.integrated_slots(fields)
        for budget in tilings(fam, 3):
            monkeypatch.setattr(domain, "TILE_VALUES", budget)
            assert fam.integrated_slots(fields).tobytes() == whole.tobytes()

    @OPERATOR_DOMAINS
    def test_tile_shapes(self, make, monkeypatch):
        # rows first, then positions, so each budget of ``tilings`` gives its
        # shape
        fam = enumerate_family(ProductDomain(make()))
        fields = np.random.default_rng(5).random((3, fam.domain.size))
        n, L = fam.component_balls[fam._integration_axes()[-1]].inner.shape
        tiles = last_pass_tiles(fam, monkeypatch)
        shapes = []
        for budget in tilings(fam, 3):
            monkeypatch.setattr(domain, "TILE_VALUES", budget)
            fam.integrated_slots(fields)
            shapes.append({(span, k) for _, _, (span, k, _) in tiles})
            tiles.clear()
        assert n > 2 and L > 2
        assert shapes == [
            {(1, 1)},  # one position of one row
            {(1, n - 1), (1, 1)},  # n - 1 rows, then the last row alone
            {(2, n), (2 - L % 2, n)},  # two positions, the last one alone when L is odd
            {(L, n)},  # the whole grid
        ]

    def test_default_budget_splits_full_cap_rows(self, monkeypatch):
        # the 92 rows of the order-3 full-cap mesh fit TILE_VALUES at two
        # positions of 248 fields, so each tile is every row, two positions
        # at a time, each span carrying its running sums into the next
        fam = enumerate_family(ProductDomain([oracles.mesh_grid(build_icosphere(3))]))
        fields = np.random.default_rng(5).random((248, fam.domain.size))
        floor_slots = fam.integrated_slots(fields[0])
        tiles = last_pass_tiles(fam, monkeypatch)
        fam.count_exceedances(fields, floor_slots, np.zeros(floor_slots.shape, dtype=np.int32))
        assert {shape for _, _, shape in tiles} == {(2, 92, 248)}
        assert [p0 for _, p0, _ in tiles] == list(range(0, 92, 2))

    @OPERATOR_DOMAINS
    def test_integrated_slots(self, make, monkeypatch):
        fam = enumerate_family(ProductDomain(make()))
        T = np.random.default_rng(11).random(fam.domain.size)
        expected = [integrated_stat(T, fam, k) for k in range(fam.n_balls)]
        whole = fam.integrated_slots(T)
        last = fam.component_balls[fam._integration_axes()[-1]]
        assert whole.shape[:2] == last.kept.T.shape
        # a budget of 1 splits every row of more than one point into spans
        # shorter than the row, each carrying its running sum into the next
        for budget in tilings(fam, 1):
            monkeypatch.setattr(domain, "TILE_VALUES", budget)
            slots = fam.integrated_slots(T)
            assert slots.tobytes() == whole.tobytes()
            np.testing.assert_allclose(fam.ball_values(slots), expected, rtol=1e-13, atol=0)

    @OPERATOR_DOMAINS
    def test_to_slots_inverts_ball_values(self, make):
        fam = enumerate_family(ProductDomain(make()))
        rng = np.random.default_rng(13)
        unkept = ~fam.component_balls[fam._integration_axes()[-1]].kept.T
        for values in (
            rng.random(fam.n_balls),
            rng.random((fam.n_balls, 3)),
            rng.integers(1, 2**31, fam.n_balls, dtype=np.int32),
            rng.integers(1, 2**62, (fam.n_balls, 2)),
        ):
            slots = fam.to_slots(values)
            assert slots.dtype == values.dtype
            assert fam.ball_values(slots).tobytes() == values.tobytes()
            assert not slots[unkept].any()

    @OPERATOR_DOMAINS
    def test_unkept_slots_never_read(self, make):
        fam = enumerate_family(ProductDomain(make()))
        fields = np.random.default_rng(12).random((9, fam.domain.size))
        stats = fam.ball_values(fam.integrated_slots(fields))
        floor = np.median(stats, axis=1)
        expected = (stats >= floor[:, None]).sum(axis=1)
        unkept = ~fam.component_balls[fam._integration_axes()[-1]].kept.T
        for fill in (-np.inf, np.inf):
            floor_slots = fam.to_slots(floor)
            floor_slots[unkept] = fill
            count_slots = np.zeros(floor_slots.shape, dtype=np.int64)
            fam.count_exceedances(fields, floor_slots, count_slots)
            np.testing.assert_array_equal(fam.ball_values(count_slots), expected)

    @staticmethod
    def count(fam, fields, floor, counts):
        """``counts`` (n_balls,) plus the fields of ``fields`` whose
        statistics reach ``floor``, through the slot grid."""
        count_slots = fam.to_slots(counts)
        fam.count_exceedances(fields, fam.to_slots(floor), count_slots)
        return fam.ball_values(count_slots)

    @OPERATOR_DOMAINS
    def test_count_exceedances(self, make, monkeypatch):
        fam = enumerate_family(ProductDomain(make()))
        rng = np.random.default_rng(7)
        start = np.arange(fam.n_balls, dtype=np.int64)
        # widest first, so each narrower call follows one whose comparisons
        # filled more byte lanes; 248 fields are 31 words, the most counted
        for B in (248, 33, 9, 7, 1):
            fields = rng.random((B, fam.domain.size))
            stats = fam.ball_values(fam.integrated_slots(fields))
            floors = (
                # every field reaches it, one of them by a tie
                stats.min(axis=1),
                # every field reaches it, one of them within the tie tolerance
                permute._tie_floor(stats.min(axis=1) * (1 + permute.TIE_RTOL / 2)),
                np.median(stats, axis=1),
            )
            assert ((stats >= floors[1][:, None]).sum(axis=1) == B).all()
            for floor in floors:
                expected = (stats >= floor[:, None]).sum(axis=1)
                for budget in [DEFAULT_TILING] + tilings(fam, B):
                    monkeypatch.setattr(domain, "TILE_VALUES", budget)
                    # counts are added to what is there
                    counts = self.count(fam, fields, floor, start)
                    np.testing.assert_array_equal(counts - start, expected)
        # 249 would carry out of a byte lane
        fields = rng.random((249, fam.domain.size))
        with pytest.raises(ValueError, match="at most 248 fields"):
            self.count(fam, fields, np.zeros(fam.n_balls), start)

    @OPERATOR_DOMAINS
    def test_column_bytes(self, make, monkeypatch):
        fam = enumerate_family(ProductDomain(make()))
        # one-row, one-position tiles, so the tile buffers grow with the stack;
        # the deepest stack counted at once, so numpy's fixed buffers are a
        # small part
        monkeypatch.setattr(domain, "TILE_VALUES", 1)
        fields = np.random.default_rng(6).random((248, fam.domain.size))
        floor_slots = fam.integrated_slots(fields[0])
        count_slots = np.zeros(floor_slots.shape, dtype=np.int64)
        tracemalloc.start()
        try:
            fam.count_exceedances(fields, floor_slots, count_slots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an upper estimate, but not a loose one
        per_field = len(fields) * fam.column_bytes
        assert per_field / 3 < peak <= per_field + domain.tile_bytes()

    def test_counting_memory_bounded(self):
        # 314,481 balls, whose statistics for 32 fields alone are 77 MiB
        fam = enumerate_family(ProductDomain([mesh_component(build_icosphere(8))]))
        rng = np.random.default_rng(8)
        # a single field pads its comparisons most, 8 bytes per value
        for B in (1, 2, 7, 32):
            fields = rng.random((B, fam.domain.size))
            floor_slots = fam.integrated_slots(fields[0])
            count_slots = np.zeros(floor_slots.shape, dtype=np.int64)
            tracemalloc.start()
            try:
                fam.count_exceedances(fields, floor_slots, count_slots)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the fields' working memory and the tiles, whatever the ball count
            bound = len(fields) * fam.column_bytes + domain.tile_bytes()
            assert bound < 12 * 2**20
            assert peak <= bound, B

    @OPERATOR_DOMAINS
    def test_adjusted_from_ballwise(self, make):
        fam = enumerate_family(ProductDomain(make()))
        rng = np.random.default_rng(4)
        p_ball = rng.random(fam.n_balls)
        np.testing.assert_array_equal(
            fam.cover(fam.to_slots(p_ball)), oracles.cover_max(p_ball, fam)
        )
        # any sub-family: the p-values of the other balls zeroed
        for keep in (0.5, 0.05):
            mask = rng.random(fam.n_balls) < keep
            np.testing.assert_array_equal(
                fam.cover(fam.to_slots(np.where(mask, p_ball, 0.0))),
                oracles.cover_max(p_ball, fam, ball_mask=mask),
            )
        for caps in cap_sets(fam):
            assert fam.cover(fam.to_slots(p_ball), caps).tobytes() == oracles.cover_max(
                p_ball, fam, ball_mask=admissible_mask(fam, caps)
            ).tobytes(), caps
        # integer counts cover as their p-values do
        counts = rng.integers(1, 2**31, fam.n_balls, dtype=np.int32)
        np.testing.assert_array_equal(
            fam.cover(fam.to_slots(counts)), oracles.cover_max(counts, fam)
        )

    @OPERATOR_DOMAINS
    @pytest.mark.parametrize("seed", [3, 7])
    def test_inference_covers_its_p_value_grid(self, make, seed):
        fam = enumerate_family(ProductDomain(make()))
        Y = np.random.default_rng(seed).standard_normal((8, fam.domain.size))
        res = permute.run_inference(
            StatKernel(Y, "t_two_sample_sq", [0] * 4 + [1] * 4),
            fam,
            permute.generate_permutations(19, seed, len(Y)),
        )
        adjusted = res.p.adjusted.tobytes()
        assert adjusted == fam.cover(fam.to_slots(res.p.ballwise)).tobytes()
        assert adjusted == oracles.cover_max(res.p.ballwise, fam).tobytes()


def cap_sets(fam):
    """Caps of every kind for a family: inf, realised inner radii and 1e-9."""
    inner = [sorted({b.inner_radius for b in ball_list(balls)}) for balls in fam.component_balls]
    return [
        [math.inf] * len(inner),
        # caps equal to realised inner radii: those balls must drop out
        [radii[len(radii) // 2] for radii in inner],
        [radii[-1] for radii in inner],
        [1e-9] + [math.inf] * (len(inner) - 1),
    ]


class TestAdmissibleMask:
    """The cover under caps equals the cover of the balls that the per-ball
    loop finds admissible."""

    @PRODUCT_DOMAINS
    def test_matches_per_ball_loop(self, make):
        fam = enumerate_family(ProductDomain(make()))
        p_ball = np.random.default_rng(5).random(fam.n_balls)
        caps = cap_sets(fam)
        for c in caps:
            assert fam.cover(fam.to_slots(p_ball), c).tobytes() == oracles.cover_max(
                p_ball, fam, ball_mask=admissible_mask(fam, c)
            ).tobytes(), c
        assert 0 < admissible_mask(fam, caps[1]).sum() < fam.n_balls

    def test_matches_fresh_enumeration_on_jittered_meshes(self):
        # a support realized by several centers is admissible under a cap as
        # soon as one of them is, whichever center the dedup kept
        def supports(balls, keep=None):
            keep = np.ones(len(balls), dtype=bool) if keep is None else keep
            centers, positions = np.nonzero(balls.kept)
            return {
                np.sort(balls.order[c, :p + 1]).tobytes()
                for c, p in zip(centers[keep], positions[keep])
            }

        ico = build_icosphere(3)
        for seed in range(20):
            noise = np.random.default_rng(seed).normal(0.0, 0.03, ico.vertices.shape)
            m = TriangulatedManifold(ico.vertices + noise, ico.triangles)
            fam = enumerate_family(ProductDomain([mesh_component(m)]))
            for cap in (0.3, 0.5, 0.8):
                fresh = enumerate_component_balls(mesh_component(m, radius_cap=cap))
                balls = fam.component_balls[0]
                kept = supports(balls, balls.inner[balls.kept] < cap)
                assert kept == supports(fresh), (seed, cap)

    def test_one_cap_per_component(self):
        fam = enumerate_family(ProductDomain([circle_component(4)]))
        with pytest.raises(ValueError, match="one cap per component"):
            fam.cover(fam.to_slots(np.ones(fam.n_balls)), [1.0, 1.0])

    @pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0])
    def test_caps_must_be_positive(self, cap):
        # caps that keep no ball would adjust every point to p = 0
        fam = enumerate_family(ProductDomain([circle_component(4), circle_component(3)]))
        with pytest.raises(ValueError, match="must be positive"):
            fam.cover(fam.to_slots(np.ones(fam.n_balls)), [math.inf, cap])


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
        assert fam.shape == (2, 3)
        assert fam.n_balls == 6

    def test_mesh_times_circle_brute_force(self, unit_tetrahedron):
        c1 = oracles.mesh_grid(unit_tetrahedron)
        c2 = circle_component(3)
        fam = enumerate_family(ProductDomain([c1, c2]))
        n1 = len(brute_force_supports(c1))
        n2 = len(brute_force_supports(c2))
        assert fam.n_balls == n1 * n2
        # supports are exact Cartesian products
        seen = set()
        for k in range(fam.n_balls):
            key = tuple(sorted(support_indices(fam, k).tolist()))
            assert key not in seen
            seen.add(key)

    def test_memory_limit(self, monkeypatch):
        d = ProductDomain([circle_component(12), interval_component(0.0, 1.0, 3)])
        n_balls = enumerate_family(d).n_balls
        bound = domain.memory_bound(d, 1)
        monkeypatch.setattr(domain, "memory_limit", lambda: bound)
        assert enumerate_family(d).n_balls == n_balls
        monkeypatch.setattr(domain, "memory_limit", lambda: bound // 2)
        with pytest.raises(FamilyTooLargeError, match=f"up to {bound / 1e6:,.1f} MB"):
            enumerate_family(d)

    def test_memory_limit_from_the_machine(self, monkeypatch):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        unlimited = resource.RLIM_INFINITY
        monkeypatch.setattr(resource, "getrlimit", lambda _: (unlimited, unlimited))
        assert domain.memory_limit() == physical // 2
        # a soft address-space limit below physical memory binds
        monkeypatch.setattr(resource, "getrlimit", lambda _: (physical // 3, unlimited))
        assert domain.memory_limit() == physical // 6

    def test_every_point_covered_by_singleton(self, octahedron):
        d = ProductDomain([mesh_component(octahedron), circle_component(3)])
        fam = enumerate_family(d)
        supports = [support_indices(fam, k) for k in range(fam.n_balls)]
        singleton_points = {int(s[0]) for s in supports if len(s) == 1}
        assert singleton_points == set(range(d.size))


class TestBallWeight:
    def test_singleton_is_vertex_weight(self, unit_tetrahedron):
        c = mesh_component(unit_tetrahedron)
        d = ProductDomain([c])
        fam = enumerate_family(d)
        for k in range(fam.n_balls):
            support = support_indices(fam, k)
            if len(support) == 1:
                assert ball_weight(fam, k) == pytest.approx(c.weights[support[0]])

    def test_full_domain_is_total_measure(self, unit_tetrahedron):
        c1 = mesh_component(unit_tetrahedron)
        c2 = circle_component(12)
        d = ProductDomain([c1, c2])
        fam = enumerate_family(d)
        full = max(range(fam.n_balls), key=lambda k: len(support_indices(fam, k)))
        assert len(support_indices(fam, full)) == d.size
        assert ball_weight(fam, full) == pytest.approx(
            total_weight(c1) * total_weight(c2), rel=1e-12
        )

    def test_tetrahedron_times_one_circle_point(self, unit_tetrahedron):
        c1 = mesh_component(unit_tetrahedron)
        c2 = circle_component(12)
        d = ProductDomain([c1, c2])
        fam = enumerate_family(d)
        target = [
            k for k in range(fam.n_balls)
            if [b.size for b in product_ball(fam, k)] == [4, 1]
        ]
        assert target
        # mesh edges have length 1 up to rounding, total area sqrt(3)
        assert ball_weight(fam, target[0]) == pytest.approx(
            np.sqrt(3.0) * (2 * np.pi / 12), rel=1e-9
        )

    def test_fubini_product_of_component_weights(self, octahedron):
        c1 = mesh_component(octahedron)
        c2 = circle_component(5)
        d = ProductDomain([c1, c2])
        fam = enumerate_family(d)
        for k in range(fam.n_balls):
            per_comp = [
                comp.weights[cb.indices].sum()
                for comp, cb in zip(d.components, product_ball(fam, k))
            ]
            assert ball_weight(fam, k) == per_comp[0] * per_comp[1]
            # and equals the sum of the flattened product weights
            assert support_weights(fam, k).sum() == pytest.approx(
                ball_weight(fam, k), rel=1e-12
            )

    def test_nesting_for_fixed_center(self):
        g = interval_component(0.0, 4.0, 5)
        balls = enumerate_component_balls(g)
        by_center: dict = {}
        for b in ball_list(balls):
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
        labels = oracles.grid_labels(d)
        assert labels == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
