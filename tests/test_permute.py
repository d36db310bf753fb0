import itertools
import tracemalloc

import numpy as np
import pytest

from ballwise import domain
from ballwise.domain import (
    AdjustmentFamily,
    FamilyTooLargeError,
    ProductDomain,
    circle_component,
    enumerate_family,
    interval_component,
    mesh_component,
)
from ballwise import permute
from ballwise.glm import StatKernel
from ballwise.mesh import TriangulatedManifold, build_icosphere
from ballwise.permute import generate_permutations, run_inference
from oracles import (
    NullDistribution,
    ball_weight,
    integrated_stat,
    null_distribution,
    permutations_loop,
    permute_once,
    product_ball,
    pvalue_bytes,
    pvalues,
    support_indices,
    t_two_sample_sq,
    weight_matrix,
)


@pytest.fixture
def tet_circle_domain(unit_tetrahedron):
    d = ProductDomain([mesh_component(unit_tetrahedron), circle_component(6)])
    return d, enumerate_family(d)


class TestIntegratedStat:
    def test_constant_field_is_weight(self, tet_circle_domain):
        d, fam = tet_circle_domain
        T = np.full(d.size, 2.5)
        for k in range(fam.n_balls):
            assert integrated_stat(T, fam, k) == pytest.approx(
                2.5 * ball_weight(fam, k), rel=1e-12
            )

    def test_singleton(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(0)
        T = rng.random(d.size)
        w = d.grid_weights()
        for k in range(fam.n_balls):
            support = support_indices(fam, k)
            if len(support) == 1:
                g = int(support[0])
                assert integrated_stat(T, fam, k) == pytest.approx(w[g] * T[g], rel=1e-12)

    def test_fubini_nested_double_sum(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(1)
        T = rng.random(d.size).reshape(d.shape)
        c1, c2 = d.components
        for k in range(fam.n_balls):
            b1, b2 = product_ball(fam, k)
            total = 0.0
            for i in b1.indices:
                inner = 0.0
                for j in b2.indices:
                    inner += c2.weights[j] * T[i, j]
                total += c1.weights[i] * inner
            assert integrated_stat(T.ravel(), fam, k) == pytest.approx(total, rel=1e-12)

    def test_matches_family_matrix(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(2)
        T = rng.random(d.size)
        stacked = fam.ball_values(fam.integrated_slots(T))
        for k in range(fam.n_balls):
            assert stacked[k] == pytest.approx(integrated_stat(T, fam, k), rel=1e-12)


class TestPermuteOnce:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((5, 3))
        np.testing.assert_allclose(permute_once(Y, "freedman_lane", np.arange(5)), Y)
        np.testing.assert_array_equal(
            permute_once(Y, "raw_label_permutation", np.arange(5)), Y
        )

    def test_intercept_null_preserves_column_means(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((6, 4))
        for _ in range(5):
            perm = rng.permutation(6)
            Yp = permute_once(Y, "freedman_lane", perm)
            np.testing.assert_allclose(Yp.mean(axis=0), Y.mean(axis=0), atol=1e-12)

    def test_reversal_formula(self):
        # intercept-only reduced model: output = mean + reversed residuals
        y = np.array([[1.0], [4.0], [2.0], [7.0]])
        out = permute_once(y, "freedman_lane", np.array([3, 2, 1, 0]))
        expected = y.mean() + (y - y.mean())[::-1]
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestGeneratePermutations:
    FAMILY = enumerate_family(ProductDomain([circle_component(4)]))

    @staticmethod
    def kernel():
        Y = np.random.default_rng(0).standard_normal((3, 4))
        return StatKernel(Y, "slope_sq", [0.0, 1.0, 2.0])

    def test_deterministic(self):
        np.testing.assert_array_equal(
            generate_permutations(10, 42, 8), generate_permutations(10, 42, 8)
        )

    def test_rows_come_from_the_seed_stream(self, monkeypatch):
        # one draw gives the rows, C-ordered, and leaves the generator in the
        # state of one rng.permutation call per row
        drawn = []

        def default_rng(seed):
            drawn.append(np.random.Generator(np.random.PCG64(seed)))
            return drawn[-1]

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        for B, N in [(10, 8), (500, 20), (500, 30), (7, 2), (3, 1), (50, 100)]:
            perms = generate_permutations(B, 42, N)
            state = drawn[-1].bit_generator.state
            expected, rng = permutations_loop(B, 42, N)
            assert perms.dtype == np.int64 and perms.flags.c_contiguous
            assert perms.tobytes() == expected.tobytes()
            assert state == rng.bit_generator.state

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="wrong length"):
            run_inference(self.kernel(), self.FAMILY, np.array([[0, 1]]))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="reorder"):
            run_inference(self.kernel(), self.FAMILY, np.array([[0, 0, 2]]))

    def test_more_than_the_counts_hold_rejected_before_any_field(self, monkeypatch):
        # B + 1 must fit the int32 count grid; the view allocates nothing
        perms = np.broadcast_to(np.arange(3), (2**31 - 1, 3))
        kernel = self.kernel()
        monkeypatch.setattr(StatKernel, "fields", lambda *args: pytest.fail("a field"))
        with pytest.raises(ValueError, match="at most 2147483646"):
            run_inference(kernel, self.FAMILY, perms)
        with pytest.raises(ValueError, match="at most 2147483646"):
            generate_permutations(2**31 - 1, 0, 3)

    def test_array_over_the_memory_limit_rejected(self, monkeypatch):
        monkeypatch.setattr(permute, "memory_limit", lambda: 8 * 10 * 8)
        assert generate_permutations(10, 0, 8).shape == (10, 8)
        with pytest.raises(ValueError, match="permutations = 11 of 8 observations"):
            generate_permutations(11, 0, 8)


class TestNullDistribution:
    def test_identity_permutation_reproduces_observed(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((8, d.size))
        design = [0] * 4 + [1] * 4
        perms = np.arange(8)[None, :]
        statistic = "t_two_sample_sq"
        nd = null_distribution(Y, statistic, design, fam, perms)
        np.testing.assert_array_equal(nd.permuted_fields[0], nd.observed_field)
        np.testing.assert_array_equal(nd.permuted_ball_stats[0], nd.observed_ball_stats)
        # the engine counts the identity as a tie everywhere: p = 2 / 2
        p = run_inference(StatKernel(Y, statistic, design), fam, perms).p
        for arr in (p.pointwise, p.ballwise, p.adjusted):
            np.testing.assert_array_equal(arr, 1.0)

    def test_group_swap_symmetry(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((6, d.size))
        design = [0, 0, 0, 1, 1, 1]
        swap = np.array([3, 4, 5, 0, 1, 2])
        perms = swap[None, :]
        statistic = "t_two_sample_sq"
        nd = null_distribution(Y, statistic, design, fam, perms)
        np.testing.assert_allclose(
            nd.permuted_fields[0], nd.observed_field, rtol=1e-9
        )
        # the engine permutes the design: the swapped grouping's design vector
        # is the negated observed one, so its t^2 is bitwise equal and the
        # swap counts as a tie everywhere
        fields = StatKernel(Y, statistic, design).fields(np.stack([np.arange(6), swap]))
        assert fields[1].tobytes() == fields[0].tobytes()
        p = run_inference(StatKernel(Y, statistic, design), fam, perms).p
        for arr in (p.pointwise, p.ballwise, p.adjusted):
            np.testing.assert_array_equal(arr, 1.0)


def exhaustive_two_sample_oracle(Y, n1, family):
    """Brute-force p-values over all distinct relabelings of a two-sample
    design, computed with an independent t implementation."""
    from scipy import stats

    N, m = Y.shape
    W = weight_matrix(family).toarray()

    def fields(Yp):
        return np.array(
            [stats.ttest_ind(Yp[:n1, j], Yp[n1:, j], equal_var=True).statistic ** 2
             for j in range(m)]
        )

    relabelings = sorted(set(itertools.combinations(range(N), n1)))
    all_fields, all_balls = [], []
    for g1 in relabelings:
        order = list(g1) + [i for i in range(N) if i not in g1]
        T = fields(Y[order])
        all_fields.append(T)
        all_balls.append(W @ T)
    obs_field, obs_balls = all_fields[0], all_balls[0]
    B = len(relabelings)
    p_point = (1 + sum(f >= obs_field for f in all_fields[1:]) + 1) / (B + 1)
    # +1 above counts the identity relabeling as a tie, matching the engine
    # when the identity is included among the permutations
    p_ball = (1 + sum(b >= obs_balls for b in all_balls[1:]) + 1) / (B + 1)
    return p_point, p_ball, relabelings


class TestExhaustiveOracle:
    def test_small_two_sample_matches_brute_force(self, octahedron):
        d = ProductDomain([mesh_component(octahedron)])
        fam = enumerate_family(d)
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((4, d.size))
        n1 = 2
        p_point_oracle, p_ball_oracle, relabelings = exhaustive_two_sample_oracle(
            Y, n1, fam
        )
        perms = np.array(
            [list(g1) + [i for i in range(4) if i not in g1] for g1 in relabelings]
        )
        design = [0, 0, 1, 1]
        statistic = "t_two_sample_sq"
        materialised = pvalues(null_distribution(Y, statistic, design, fam, perms), fam)
        engine = run_inference(StatKernel(Y, statistic, design), fam, perms).p
        for p in (materialised, engine):
            np.testing.assert_array_equal(p.pointwise, p_point_oracle)
            np.testing.assert_array_equal(p.ballwise, p_ball_oracle)


class TestTies:
    """Random permutations never give a p-value below the exhaustive one.

    N = 8 two-sample, 12 circle points with singleton balls, so the 70
    groupings give the exact p of every point and ball. A grouping and its
    complement give the same t^2, and with rounded data (two equal rows and
    values on a 0.1 grid) many more groupings tie. Each tie lost to a one-ulp
    difference lowers the engine's p, so the engine's p may sit below the
    exact p by Monte Carlo error only: 4 standard errors, sqrt(p (1 - p) / B).
    """

    B = 20_000

    @staticmethod
    def exact_p(Y, labels):
        obs = t_two_sample_sq(Y, labels)
        null = []
        for g1 in itertools.combinations(range(8), 4):
            relabelled = np.ones(8, dtype=int)
            relabelled[list(g1)] = 0
            null.append(t_two_sample_sq(Y, relabelled))
        null = np.array(null)
        # equal in exact arithmetic means equal to 1e-9 here: distinct
        # groupings of these data differ far more
        return ((null >= obs) | np.isclose(null, obs, rtol=1e-9, atol=0)).mean(axis=0)

    @pytest.mark.parametrize("rounded", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_never_below_exhaustive_p(self, rounded, seed):
        fam = enumerate_family(ProductDomain([circle_component(12, 12.0, radius_cap=0.5)]))
        assert fam.n_balls == 12
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((8, 12))
        if rounded:
            Y = np.round(Y, 1)
            Y[7] = Y[0]
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        exact = self.exact_p(Y, labels)
        perms = generate_permutations(self.B, seed, len(Y))
        p = run_inference(StatKernel(Y, "t_two_sample_sq", labels), fam, perms).p
        floor = exact - 4 * np.sqrt(exact * (1 - exact) / self.B)
        assert np.all(p.pointwise >= floor)
        # singleton balls: each ball's statistic is its point's, times a weight
        assert np.all(p.ballwise >= floor)


class TestPValues:
    def _nd(self, obs_field, obs_balls, perm_fields, perm_balls):
        return NullDistribution(
            np.asarray(obs_field, float),
            np.asarray(obs_balls, float),
            np.asarray(perm_fields, float),
            np.asarray(perm_balls, float),
        )

    def test_all_permuted_below(self, tet_circle_domain):
        d, fam = tet_circle_domain
        B = 9
        nd = self._nd(
            np.ones(d.size),
            np.ones(fam.n_balls),
            np.zeros((B, d.size)),
            np.zeros((B, fam.n_balls)),
        )
        p = pvalues(nd, fam)
        np.testing.assert_allclose(p.pointwise, 1.0 / (B + 1))
        np.testing.assert_allclose(p.ballwise, 1.0 / (B + 1))
        np.testing.assert_allclose(p.adjusted, 1.0 / (B + 1))

    def test_all_ties_give_one(self, tet_circle_domain):
        d, fam = tet_circle_domain
        B = 4
        nd = self._nd(
            np.ones(d.size),
            np.ones(fam.n_balls),
            np.ones((B, d.size)),
            np.ones((B, fam.n_balls)),
        )
        p = pvalues(nd, fam)
        np.testing.assert_allclose(p.pointwise, 1.0)
        np.testing.assert_allclose(p.adjusted, 1.0)

    def test_values_on_permutation_grid(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((8, d.size))
        design = [0] * 4 + [1] * 4
        perms = generate_permutations(25, 1, len(Y))
        res = run_inference(StatKernel(Y, "t_two_sample_sq", design), fam, perms)
        B = 25
        for arr in (res.p.pointwise, res.p.ballwise, res.p.adjusted):
            k = np.round(arr * (B + 1))
            np.testing.assert_allclose(arr, k / (B + 1), atol=1e-12)
            assert np.all((k >= 1) & (k <= B + 1))

    def test_single_full_domain_ball_gives_constant_adjustment(self, octahedron):
        d = ProductDomain([mesh_component(octahedron)])
        fam = enumerate_family(d)
        full_mask = np.array(
            [len(support_indices(fam, k)) == d.size for k in range(fam.n_balls)]
        )
        assert full_mask.sum() == 1
        p_ball = np.linspace(0.1, 0.9, fam.n_balls)
        adj = fam.cover(fam.to_slots(np.where(full_mask, p_ball, 0.0)))
        np.testing.assert_allclose(adj, p_ball[full_mask][0])

    def test_adjusted_is_max_over_covering_balls(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(10)
        p_ball = rng.random(fam.n_balls)
        adj = fam.cover(fam.to_slots(p_ball))
        for g in rng.integers(0, d.size, size=5):
            covering = [
                p_ball[k] for k in range(fam.n_balls) if g in support_indices(fam, k)
            ]
            assert adj[g] == pytest.approx(max(covering))


class TestEngineProperties:
    def test_adjusted_dominates_pointwise(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((10, d.size))
        design = [0] * 5 + [1] * 5
        perms = generate_permutations(40, 2, len(Y))
        res = run_inference(StatKernel(Y, "t_two_sample_sq", design), fam, perms)
        assert np.all(res.p.adjusted >= res.p.pointwise)

    def test_coincident_vertices_have_no_singleton(self):
        # a 4 x 4 planar grid whose vertex 5 has a twin, 16, at the same place:
        # the triangles right of 5 use the twin, and a flat triangle joins them
        grid = np.array([(i, j, 0.0) for j in range(4) for i in range(4)])
        tris = np.array([
            t for a in (4 * j + i for j in range(3) for i in range(3))
            for t in ((a, a + 1, a + 5), (a, a + 5, a + 4))
        ])
        right = (tris == 5).any(axis=1) & (grid[tris][:, :, 0].max(axis=1) > 1)
        tris[right] = np.where(tris[right] == 5, 16, tris[right])
        m = TriangulatedManifold(np.vstack([grid, grid[5]]), np.vstack([tris, [(5, 16, 1)]]))
        fam = enumerate_family(ProductDomain([mesh_component(m)]))
        assert fam.domain.components[0].rows.row(5)[1][:2].tolist() == [0.0, 0.0]
        # a singleton is the first slot of a row, and every other row starts
        # at its own center
        assert np.flatnonzero(~fam.component_balls[0].kept[:, 0]).tolist() == [5, 16]
        others = np.arange(m.n_vertices) != 5
        others[16] = False
        design = [0] * 4 + [1] * 4
        for seed in range(5):
            Y = np.random.default_rng(seed).standard_normal((8, m.n_vertices))
            perms = generate_permutations(60, seed, len(Y))
            res = run_inference(StatKernel(Y, "t_two_sample_sq", design), fam, perms)
            assert np.all(res.p.adjusted[others] >= res.p.pointwise[others]), seed

    def test_cap_enlargement_never_decreases_adjusted(self, octahedron):
        rng = np.random.default_rng(12)
        design = [0] * 5 + [1] * 5
        statistic = "t_two_sample_sq"
        results = {}
        for cap in [0.5, 1.8, np.inf]:
            dom = ProductDomain([mesh_component(octahedron, radius_cap=cap)])
            fam = enumerate_family(dom)
            Y = np.random.default_rng(99).standard_normal((10, dom.size))
            perms = generate_permutations(30, 3, len(Y))
            results[cap] = run_inference(StatKernel(Y, statistic, design), fam, perms).p.adjusted
        assert np.all(results[1.8] >= results[0.5] - 1e-15)
        assert np.all(results[np.inf] >= results[1.8] - 1e-15)

    def test_seed_determinism_bit_identical(self, tet_circle_domain):
        d, fam = tet_circle_domain
        Y = np.random.default_rng(13).standard_normal((8, d.size))
        design = [0] * 4 + [1] * 4
        statistic = "t_two_sample_sq"
        perms = generate_permutations(20, 7, len(Y))
        a = pvalue_bytes(run_inference(StatKernel(Y, statistic, design), fam, perms).p)
        b = pvalue_bytes(run_inference(StatKernel(Y, statistic, design), fam, perms).p)
        assert a == b

    @pytest.mark.parametrize("statistic", ["t_two_sample_sq", "t_trend_cutoff", "slope_sq"])
    def test_intercept_only_schemes_give_the_same_p_values(self, statistic):
        # under an intercept-only null, Freedman-Lane's fits plus permuted
        # residuals are the permuted signals in exact arithmetic; the
        # engine's permuted signals and that reference may differ in their
        # last bits, the p-values may not
        fam = enumerate_family(
            ProductDomain([mesh_component(build_icosphere(6), 0.3), circle_component(6)])
        )
        for seed in range(20):
            rng = np.random.default_rng(seed)
            Y = rng.standard_normal((30, fam.domain.size))
            Y = Y * rng.uniform(0.1, 100.0) + rng.uniform(-1000.0, 1000.0)
            if statistic == "t_two_sample_sq":
                design = [0] * 15 + [1] * 15
            else:
                design = rng.standard_normal(30)
            perms = generate_permutations(100, seed, len(Y))
            nd = null_distribution(Y, statistic, design, fam, perms, "freedman_lane")
            p = [
                pvalue_bytes(pvalues(nd, fam)),
                pvalue_bytes(run_inference(StatKernel(Y, statistic, design), fam, perms).p),
            ]
            assert p[0] == p[1], seed

    def test_chunked_matches_materialized(self, tet_circle_domain, monkeypatch):
        d, fam = tet_circle_domain
        Y = np.random.default_rng(14).standard_normal((8, d.size))
        design = [0] * 4 + [1] * 4
        statistic = "t_two_sample_sq"
        monkeypatch.setattr(domain, "CHUNK_PERMUTATIONS", 4)
        perms = generate_permutations(23, 5, len(Y))
        p_chunk = run_inference(StatKernel(Y, statistic, design), fam, perms).p
        for scheme in ("freedman_lane", "raw_label_permutation"):
            nd = null_distribution(Y, statistic, design, fam, perms, scheme)
            assert pvalue_bytes(pvalues(nd, fam)) == pvalue_bytes(p_chunk)

    def test_chunk_size_and_byte_budget(self, tet_circle_domain, monkeypatch):
        d, fam = tet_circle_domain
        Y = np.random.default_rng(16).standard_normal((8, d.size))
        design = [0] * 4 + [1] * 4
        statistic = "t_two_sample_sq"
        perms = generate_permutations(45, 8, len(Y))
        monkeypatch.setattr(domain, "CHUNK_PERMUTATIONS", 1)
        ref = pvalue_bytes(run_inference(StatKernel(Y, statistic, design), fam, perms).p)
        for chunk in (7, 32):
            monkeypatch.setattr(domain, "CHUNK_PERMUTATIONS", chunk)
            p = run_inference(StatKernel(Y, statistic, design), fam, perms).p
            assert pvalue_bytes(p) == ref
        # a memory limit below the bound at a chunk of 4 caps every chunk at
        # 3: the observed field is integrated alone (0), each chunk is
        # counted in one call
        stacked = []
        integrate = AdjustmentFamily.integrated_slots
        count = AdjustmentFamily.count_exceedances

        def spy_integrate(self, fields):
            stacked.append(len(fields) if np.ndim(fields) == 2 else 0)
            return integrate(self, fields)

        def spy_count(self, fields, floor_slots, count_slots):
            stacked.append(len(fields))
            return count(self, fields, floor_slots, count_slots)

        monkeypatch.setattr(AdjustmentFamily, "integrated_slots", spy_integrate)
        monkeypatch.setattr(AdjustmentFamily, "count_exceedances", spy_count)
        bounds = [domain.memory_bound(d, chunk) for chunk in range(1, 33)]
        monkeypatch.setattr(domain, "memory_limit", lambda: bounds[3] - 1)
        result = run_inference(StatKernel(Y, statistic, design), fam, perms)
        assert pvalue_bytes(result.p) == ref and result.permutation_chunk == 3
        assert stacked == [0] + [3] * 15
        # every limit between the bounds at chunks of 1 and 32 gives the
        # largest chunk whose bound fits
        for chunk, bound in enumerate(bounds, 1):
            monkeypatch.setattr(domain, "memory_limit", lambda: bound)
            assert fam.chunk_size() == chunk
            monkeypatch.setattr(domain, "memory_limit", lambda: bound - 1)
            assert fam.chunk_size() == max(chunk - 1, 1)
        monkeypatch.setattr(domain, "memory_limit", lambda: bounds[-1] * 2)
        assert fam.chunk_size() == 32
        # the family is refused exactly when a chunk of one does not fit
        monkeypatch.setattr(domain, "memory_limit", lambda: bounds[0])
        assert enumerate_family(d).n_balls == fam.n_balls
        monkeypatch.setattr(domain, "memory_limit", lambda: bounds[0] - 1)
        with pytest.raises(FamilyTooLargeError, match=f"up to {bounds[0] / 1e6:,.1f} MB"):
            enumerate_family(d)

    @pytest.mark.parametrize("components", [
        lambda: [mesh_component(build_icosphere(25), 0.3), circle_component(12, 12.0, 2.5)],
        lambda: [mesh_component(build_icosphere(12), 0.3), circle_component(24, 24.0, 2.5)],
    ], ids=["s2xs1-order25", "order12-circle24"])
    def test_large_products_run_chunks_of_32(self, components, monkeypatch):
        # 25,899,408 and 2,510,784 balls: with memory to spare, a large
        # product runs chunks of 32 too
        monkeypatch.setattr(domain, "memory_limit", lambda: 2**40)
        fam = enumerate_family(ProductDomain(components()))
        assert fam.chunk_size() == 32

    @pytest.mark.slow
    def test_order16_full_cap_runs_chunks_of_32(self, monkeypatch):
        # 5,961,058 balls, whose statistics for a chunk of 32 alone would be
        # 1.4 GiB; counting in the tiles holds none of them
        fam = enumerate_family(ProductDomain([mesh_component(build_icosphere(16))]))
        Y = np.random.default_rng(17).standard_normal((8, fam.domain.size))
        design = [0] * 4 + [1] * 4
        statistic = "t_two_sample_sq"
        perms = generate_permutations(64, 9, len(Y))
        stacked = []
        count = AdjustmentFamily.count_exceedances

        def spy(self, fields, floor_slots, count_slots):
            stacked.append(len(fields))
            return count(self, fields, floor_slots, count_slots)

        monkeypatch.setattr(AdjustmentFamily, "count_exceedances", spy)
        chunked = pvalue_bytes(run_inference(StatKernel(Y, statistic, design), fam, perms).p)
        assert stacked == [32, 32]
        monkeypatch.setattr(domain, "CHUNK_PERMUTATIONS", 1)
        p = run_inference(StatKernel(Y, statistic, design), fam, perms).p
        assert pvalue_bytes(p) == chunked

    @pytest.mark.slow
    def test_order16_full_cap_peak_within_2_85_slot_grids(self):
        # 5,961,058 balls on a 2562 x 2562 slot grid of 50 MiB; the peak
        # measured 2.79 grids, after the loop: the observed sums, the
        # p-values and the counts they are divided from in ball order, and
        # the int32 count grid; the cover scatters through a view of the
        # rows' point order, so it copies no point index per slot
        fam = enumerate_family(ProductDomain([mesh_component(build_icosphere(16))]))
        Y = np.random.default_rng(18).standard_normal((12, fam.domain.size))
        design = [0] * 6 + [1] * 6
        statistic = "t_two_sample_sq"
        perms = generate_permutations(32, 10, len(Y))
        tracemalloc.start()
        try:
            run_inference(StatKernel(Y, statistic, design), fam, perms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.n_balls == 5_961_058
        assert peak <= 2.85 * 8 * fam.domain.size**2

    @pytest.mark.slow
    def test_order16_full_cap_cover_under_caps_within_1_5_slot_grids(self):
        # the p-values on the slot grid and the cover's bool mask of one
        # component's slots; no copy of the p-values per product ball
        fam = enumerate_family(ProductDomain([mesh_component(build_icosphere(16))]))
        p_ball = np.random.default_rng(20).random(fam.n_balls)
        tracemalloc.start()
        try:
            fam.cover(fam.to_slots(p_ball), [0.3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * fam.domain.size**2

    @pytest.mark.slow
    @pytest.mark.parametrize("shape", [
        "mesh_circle", "sphere25", "simulate_fullcap", "order16_full_cap", "s2xs1"
    ])
    def test_memory_bound_holds_the_peak(self, shape):
        # the benchmark's domain shapes and statistics, the full cap at order
        # 16, and S^2 x S^1 at order 25 (25,899,408 balls); B = 64 runs two
        # full chunks
        N, statistic = 20, "t_two_sample_sq"
        if shape == "mesh_circle":
            components = [mesh_component(build_icosphere(4), 0.5), circle_component(12, 12.0, 2.5)]
        elif shape == "sphere25":
            components = [mesh_component(build_icosphere(25), 0.06)]
            N, statistic = 30, "t_trend_cutoff"
        elif shape == "s2xs1":
            components = [mesh_component(build_icosphere(25), 0.3), circle_component(12, 12.0, 2.5)]
            N, statistic = 30, "t_trend_cutoff"
        else:
            components = [mesh_component(build_icosphere(5 if shape == "simulate_fullcap" else 16))]
        d = ProductDomain(components)
        bound = domain.memory_bound(d, domain.CHUNK_PERMUTATIONS)
        Y = np.random.default_rng(19).standard_normal((N, d.size))
        if statistic == "t_trend_cutoff":
            design = np.arange(float(N))
        else:
            design = [0] * (N // 2) + [1] * (N // 2)
        perms = generate_permutations(64, 11, len(Y))
        tracemalloc.start()
        try:
            fam = enumerate_family(d)
            run_inference(StatKernel(Y, statistic, design), fam, perms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the rows were built before tracing began, and the bound counts them
        peak += sum(c.rows.indices.nbytes + c.rows.values.nbytes for c in components)
        assert peak <= bound
        if shape == "order16_full_cap":
            assert bound <= 2 * peak

    def test_superuniform_pointwise_under_null(self):
        # two-sample test with iid errors: pointwise p is (super)uniform
        g = interval_component(0.0, 1.0, 2)
        dom = ProductDomain([g])
        fam = enumerate_family(dom)
        design = [0] * 5 + [1] * 5
        statistic = "t_two_sample_sq"
        rng = np.random.default_rng(15)
        alpha = 0.25
        B = 19
        hits = 0
        n_rep = 400
        for r in range(n_rep):
            Y = rng.standard_normal((10, dom.size))
            perms = generate_permutations(B, int(rng.integers(2 ** 63)), len(Y))
            res = run_inference(StatKernel(Y, statistic, design), fam, perms)
            hits += res.p.pointwise[0] <= alpha
        rate = hits / n_rep
        mc_err = np.sqrt(alpha * (1 - alpha) / n_rep)
        assert rate <= alpha + 3 * mc_err
        assert rate >= alpha - 4 * mc_err  # not grossly conservative either
