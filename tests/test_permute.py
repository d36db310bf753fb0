import itertools
import tracemalloc

import numpy as np
import pytest

from ballwise import permute
from ballwise.domain import (
    AdjustmentFamily,
    ProductDomain,
    circle_component,
    enumerate_family,
    interval_component,
    mesh_component,
)
from ballwise.glm import DesignSpec, HypothesisSpec, StatKernel
from ballwise.mesh import build_icosphere
from ballwise.permute import (
    PermutationPlan,
    adjusted_from_ballwise,
    generate_permutations,
    run_inference,
)
from oracles import (
    NullDistribution,
    ball_weight,
    integrated_stat,
    null_distribution,
    permute_once,
    product_ball,
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
        stacked = fam.integrated_stats(T)
        for k in range(fam.n_balls):
            assert stacked[k] == pytest.approx(integrated_stat(T, fam, k), rel=1e-12)


class TestPermuteOnce:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((5, 3))
        plan = PermutationPlan(1, scheme="freedman_lane")
        np.testing.assert_allclose(permute_once(Y, plan, np.arange(5)), Y)
        plan_raw = PermutationPlan(1, scheme="raw_label_permutation")
        np.testing.assert_array_equal(permute_once(Y, plan_raw, np.arange(5)), Y)

    def test_intercept_null_preserves_column_means(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((6, 4))
        plan = PermutationPlan(1, scheme="freedman_lane")
        for _ in range(5):
            perm = rng.permutation(6)
            Yp = permute_once(Y, plan, perm)
            np.testing.assert_allclose(Yp.mean(axis=0), Y.mean(axis=0), atol=1e-12)

    def test_reversal_formula(self):
        # intercept-only reduced model: output = mean + reversed residuals
        y = np.array([[1.0], [4.0], [2.0], [7.0]])
        plan = PermutationPlan(1, scheme="freedman_lane")
        out = permute_once(y, plan, np.array([3, 2, 1, 0]))
        expected = y.mean() + (y - y.mean())[::-1]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_explicit_null_design_matches_default(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((6, 2))
        perm = rng.permutation(6)
        default = permute_once(Y, PermutationPlan(1), perm)
        explicit = permute_once(
            Y, PermutationPlan(1, null_design=np.ones((6, 1))), perm
        )
        np.testing.assert_allclose(default, explicit, atol=1e-12)

    def test_rank_deficient_null_design(self):
        Y = np.zeros((4, 2))
        plan = PermutationPlan(1, null_design=np.ones((4, 2)))
        with pytest.raises(ValueError, match="rank deficient"):
            permute_once(Y, plan, np.arange(4))
        fam = enumerate_family(ProductDomain([interval_component(0.0, 1.0, 2)]))
        design = DesignSpec(covariates=np.arange(4.0))
        with pytest.raises(ValueError, match="rank deficient"):
            run_inference(Y, design, HypothesisSpec("slope_sq"), fam, plan)


class TestGeneratePermutations:
    def test_deterministic(self):
        plan = PermutationPlan(10, seed=42)
        np.testing.assert_array_equal(
            generate_permutations(plan, 8), generate_permutations(plan, 8)
        )

    def test_explicit_override(self):
        perms = np.array([[1, 0, 2], [2, 1, 0]])
        plan = PermutationPlan(99, permutations=perms)
        assert plan.n_permutations == 2
        np.testing.assert_array_equal(generate_permutations(plan, 3), perms)

    def test_wrong_length_rejected(self):
        plan = PermutationPlan(1, permutations=np.array([[0, 1]]))
        with pytest.raises(ValueError, match="wrong length"):
            generate_permutations(plan, 3)

    def test_non_permutation_rejected(self):
        plan = PermutationPlan(1, permutations=np.array([[0, 0, 2]]))
        with pytest.raises(ValueError, match="reorder"):
            generate_permutations(plan, 3)


class TestNullDistribution:
    def test_identity_permutation_reproduces_observed(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((8, d.size))
        design = DesignSpec(group_labels=[0] * 4 + [1] * 4)
        plan = PermutationPlan(
            1, scheme="raw_label_permutation",
            permutations=np.arange(8)[None, :],
        )
        hyp = HypothesisSpec("t_two_sample_sq")
        nd = null_distribution(Y, design, hyp, fam, plan)
        np.testing.assert_array_equal(nd.permuted_fields[0], nd.observed_field)
        np.testing.assert_array_equal(nd.permuted_ball_stats[0], nd.observed_ball_stats)
        # the engine counts the identity as a tie everywhere: p = 2 / 2
        p = run_inference(Y, design, hyp, fam, plan).p
        for arr in (p.pointwise, p.ballwise, p.adjusted):
            np.testing.assert_array_equal(arr, 1.0)

    def test_group_swap_symmetry(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((6, d.size))
        design = DesignSpec(group_labels=[0, 0, 0, 1, 1, 1])
        swap = np.array([3, 4, 5, 0, 1, 2])
        plan = PermutationPlan(
            1, scheme="raw_label_permutation", permutations=swap[None, :]
        )
        hyp = HypothesisSpec("t_two_sample_sq")
        nd = null_distribution(Y, design, hyp, fam, plan)
        np.testing.assert_allclose(
            nd.permuted_fields[0], nd.observed_field, rtol=1e-9
        )
        # the engine permutes the design: the swapped grouping's design vector
        # is the negated observed one, so its t^2 is bitwise equal and the
        # swap counts as a tie everywhere
        fields = StatKernel(Y, design, hyp).fields(np.stack([np.arange(6), swap]))
        assert fields[1].tobytes() == fields[0].tobytes()
        p = run_inference(Y, design, hyp, fam, plan).p
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
        design = DesignSpec(group_labels=[0, 0, 1, 1])
        plan = PermutationPlan(
            len(perms), scheme="raw_label_permutation", permutations=perms
        )
        hyp = HypothesisSpec("t_two_sample_sq")
        materialised = pvalues(null_distribution(Y, design, hyp, fam, plan), fam)
        engine = run_inference(Y, design, hyp, fam, plan).p
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
        plan = PermutationPlan(self.B, seed=seed, scheme="raw_label_permutation")
        p = run_inference(
            Y, DesignSpec(group_labels=labels), HypothesisSpec("t_two_sample_sq"), fam, plan
        ).p
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
        design = DesignSpec(group_labels=[0] * 4 + [1] * 4)
        plan = PermutationPlan(25, seed=1, scheme="raw_label_permutation")
        res = run_inference(Y, design, HypothesisSpec("t_two_sample_sq"), fam, plan)
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
        adj = adjusted_from_ballwise(p_ball, fam, ball_mask=full_mask)
        np.testing.assert_allclose(adj, p_ball[full_mask][0])

    def test_adjusted_is_max_over_covering_balls(self, tet_circle_domain):
        d, fam = tet_circle_domain
        rng = np.random.default_rng(10)
        p_ball = rng.random(fam.n_balls)
        adj = adjusted_from_ballwise(p_ball, fam)
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
        design = DesignSpec(group_labels=[0] * 5 + [1] * 5)
        plan = PermutationPlan(40, seed=2, scheme="raw_label_permutation")
        res = run_inference(Y, design, HypothesisSpec("t_two_sample_sq"), fam, plan)
        assert np.all(res.p.adjusted >= res.p.pointwise)

    def test_cap_enlargement_never_decreases_adjusted(self, octahedron):
        rng = np.random.default_rng(12)
        design = DesignSpec(group_labels=[0] * 5 + [1] * 5)
        hyp = HypothesisSpec("t_two_sample_sq")
        results = {}
        for cap in [0.5, 1.8, np.inf]:
            dom = ProductDomain([mesh_component(octahedron, radius_cap=cap)])
            fam = enumerate_family(dom)
            Y = np.random.default_rng(99).standard_normal((10, dom.size))
            plan = PermutationPlan(30, seed=3, scheme="raw_label_permutation")
            results[cap] = run_inference(Y, design, hyp, fam, plan).p.adjusted
        assert np.all(results[1.8] >= results[0.5] - 1e-15)
        assert np.all(results[np.inf] >= results[1.8] - 1e-15)

    def test_seed_determinism_bit_identical(self, tet_circle_domain):
        d, fam = tet_circle_domain
        Y = np.random.default_rng(13).standard_normal((8, d.size))
        design = DesignSpec(group_labels=[0] * 4 + [1] * 4)
        hyp = HypothesisSpec("t_two_sample_sq")
        plan = PermutationPlan(20, seed=7, scheme="freedman_lane")
        a = run_inference(Y, design, hyp, fam, plan).p.tobytes()
        b = run_inference(Y, design, hyp, fam, plan).p.tobytes()
        assert a == b

    def test_chunked_matches_materialized(self, tet_circle_domain, monkeypatch):
        d, fam = tet_circle_domain
        Y = np.random.default_rng(14).standard_normal((8, d.size))
        design = DesignSpec(group_labels=[0] * 4 + [1] * 4)
        hyp = HypothesisSpec("t_two_sample_sq")
        covariate_null = np.column_stack([np.ones(8), np.arange(8.0)])
        monkeypatch.setattr(permute, "CHUNK_PERMUTATIONS", 4)
        for scheme, null_design in [
            ("freedman_lane", None),
            ("freedman_lane", covariate_null),
            ("raw_label_permutation", None),
        ]:
            plan = PermutationPlan(23, seed=5, scheme=scheme, null_design=null_design)
            nd = null_distribution(Y, design, hyp, fam, plan)
            p_ref = pvalues(nd, fam)
            p_chunk = run_inference(Y, design, hyp, fam, plan).p
            assert p_ref.tobytes() == p_chunk.tobytes()

    @pytest.mark.parametrize("scheme", ["freedman_lane", "raw_label_permutation"])
    def test_chunk_size_and_byte_budget(self, tet_circle_domain, scheme, monkeypatch):
        d, fam = tet_circle_domain
        Y = np.random.default_rng(16).standard_normal((8, d.size))
        design = DesignSpec(group_labels=[0] * 4 + [1] * 4)
        hyp = HypothesisSpec("t_two_sample_sq")
        plan = PermutationPlan(45, seed=8, scheme=scheme)
        monkeypatch.setattr(permute, "CHUNK_PERMUTATIONS", 1)
        ref = run_inference(Y, design, hyp, fam, plan).p.tobytes()
        for chunk in (7, 32):
            monkeypatch.setattr(permute, "CHUNK_PERMUTATIONS", chunk)
            assert run_inference(Y, design, hyp, fam, plan).p.tobytes() == ref
        # a budget of the tiles and three fields' working memory caps every
        # chunk at 3: the observed field is integrated alone (0), each chunk
        # is counted in one call
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
        per_field = max(fam.column_bytes, permute.KERNEL_FIELDS * 8 * d.size)
        monkeypatch.setattr(permute, "CHUNK_BYTES", fam.tile_bytes + 3 * per_field + 7)
        assert run_inference(Y, design, hyp, fam, plan).p.tobytes() == ref
        assert stacked == [0] + [3] * 15

    @pytest.mark.slow
    def test_order16_full_cap_runs_chunks_of_32(self, monkeypatch):
        # 5,961,058 balls, whose statistics for a chunk of 32 alone would be
        # 1.4 GiB; counting in the tiles holds none of them
        fam = enumerate_family(ProductDomain([mesh_component(build_icosphere(16))]))
        Y = np.random.default_rng(17).standard_normal((8, fam.domain.size))
        design = DesignSpec(group_labels=[0] * 4 + [1] * 4)
        hyp = HypothesisSpec("t_two_sample_sq")
        plan = PermutationPlan(64, seed=9, scheme="raw_label_permutation")
        stacked = []
        count = AdjustmentFamily.count_exceedances

        def spy(self, fields, floor_slots, count_slots):
            stacked.append(len(fields))
            return count(self, fields, floor_slots, count_slots)

        monkeypatch.setattr(AdjustmentFamily, "count_exceedances", spy)
        chunked = run_inference(Y, design, hyp, fam, plan).p.tobytes()
        assert stacked == [32, 32]
        monkeypatch.setattr(permute, "CHUNK_PERMUTATIONS", 1)
        assert run_inference(Y, design, hyp, fam, plan).p.tobytes() == chunked

    @pytest.mark.slow
    def test_order16_full_cap_peak_within_three_slot_grids(self):
        # 5,961,058 balls on a 2562 x 2562 slot grid of 50 MiB; the peak
        # measured 2.96 grids: the observed sums and the p-values in ball
        # order, and the p-value grid; the cover scatters through a view of
        # the rows' point order, so it copies no point index per slot
        fam = enumerate_family(ProductDomain([mesh_component(build_icosphere(16))]))
        Y = np.random.default_rng(18).standard_normal((12, fam.domain.size))
        design = DesignSpec(group_labels=[0] * 6 + [1] * 6)
        hyp = HypothesisSpec("t_two_sample_sq")
        plan = PermutationPlan(32, seed=10, scheme="raw_label_permutation")
        tracemalloc.start()
        try:
            run_inference(Y, design, hyp, fam, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.n_balls == 5_961_058
        assert peak <= 3.0 * 8 * fam.domain.size**2

    def test_superuniform_pointwise_under_null(self):
        # raw two-sample scheme with iid errors: pointwise p is (super)uniform
        g = interval_component(0.0, 1.0, 2)
        dom = ProductDomain([g])
        fam = enumerate_family(dom)
        design = DesignSpec(group_labels=[0] * 5 + [1] * 5)
        hyp = HypothesisSpec("t_two_sample_sq")
        rng = np.random.default_rng(15)
        alpha = 0.25
        B = 19
        hits = 0
        n_rep = 400
        for r in range(n_rep):
            Y = rng.standard_normal((10, dom.size))
            plan = PermutationPlan(
                B, seed=int(rng.integers(2 ** 63)), scheme="raw_label_permutation"
            )
            res = run_inference(Y, design, hyp, fam, plan)
            hits += res.p.pointwise[0] <= alpha
        rate = hits / n_rep
        mc_err = np.sqrt(alpha * (1 - alpha) / n_rep)
        assert rate <= alpha + 3 * mc_err
        assert rate >= alpha - 4 * mc_err  # not grossly conservative either
