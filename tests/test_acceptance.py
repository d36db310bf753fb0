"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The two Monte Carlo criteria (error control under the global null and the
power/error trade-off sweep) take a few minutes combined; everything else is
seconds.
"""

import itertools
import time

import numpy as np
import pytest
from scipy import stats

from ballwise.domain import (
    ProductDomain,
    circle_component,
    enumerate_family,
    mesh_component,
)
from ballwise.evalsim import ScenarioConfig, cap_region_mask, run_scenario
from ballwise.glm import DesignSpec, HypothesisSpec
from ballwise.mesh import build_icosphere
from ballwise.permute import PermutationPlan, run_inference
from oracles import (
    integrated_stat,
    null_distribution,
    product_ball,
    pvalues,
    weight_matrix,
)

ALPHA = 0.05


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_icosphere_counts():
    start = time.monotonic()
    m25 = build_icosphere(25)
    ok = m25.n_vertices == 6252
    detail = f"order 25 -> {m25.n_vertices} vertices"
    for n in (1, 2, 5, 10):
        m = build_icosphere(n)
        ok &= m.n_vertices == 10 * n ** 2 + 2
        ok &= len(m.triangles) == 20 * n ** 2
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report("icosphere vertex/face counts", ok, f"{detail}, {elapsed:.2f}s")


def test_quadrature_convergence():
    start = time.monotonic()
    sphere_area = 4 * np.pi
    err = {}
    for n in (5, 10):
        m = build_icosphere(n).compute_weights()
        err[n] = abs(m.total_weight() - sphere_area) / sphere_area
    ratio = err[5] / err[10]
    elapsed = time.monotonic() - start
    ok = err[10] < 0.005 and 3.0 <= ratio <= 5.0 and elapsed < 5.0
    report(
        "sphere quadrature convergence",
        ok,
        f"order-10 rel err {err[10]:.4f}, order-5/order-10 ratio {ratio:.2f}, "
        f"{elapsed:.2f}s",
    )


def test_fubini_oracle(unit_tetrahedron):
    start = time.monotonic()
    d = ProductDomain([mesh_component(unit_tetrahedron), circle_component(6)])
    fam = enumerate_family(d)
    rng = np.random.default_rng(1)
    T = rng.random(d.size)
    grid = T.reshape(d.shape)
    c1, c2 = d.components
    worst = 0.0
    for k in range(fam.n_balls):
        b1, b2 = product_ball(fam, k)
        total = 0.0
        for i in b1.indices:
            inner = 0.0
            for j in b2.indices:
                inner += c2.weights[j] * grid[i, j]
            total += c1.weights[i] * inner
        got = integrated_stat(T, fam, k)
        worst = max(worst, abs(got - total) / abs(total))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(
        "Fubini nested-sum oracle on mesh x circle",
        ok,
        f"{fam.n_balls} balls, worst rel dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_exhaustive_permutation_oracle(octahedron):
    start = time.monotonic()
    d = ProductDomain([mesh_component(octahedron)])
    fam = enumerate_family(d)
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((4, d.size))
    W = weight_matrix(fam).toarray()

    # oracle: textbook t over all 4!/(2!2!) = 6 distinct relabelings
    relabelings = sorted(itertools.combinations(range(4), 2))
    fields, ball_stats = [], []
    for g1 in relabelings:
        order = list(g1) + [i for i in range(4) if i not in g1]
        Yp = Y[order]
        T = np.array(
            [
                stats.ttest_ind(Yp[:2, j], Yp[2:, j], equal_var=True).statistic ** 2
                for j in range(d.size)
            ]
        )
        fields.append(T)
        ball_stats.append(W @ T)
    B = len(relabelings)
    p_point_oracle = (1 + sum(f >= fields[0] for f in fields)) / (B + 1)
    p_ball_oracle = (1 + sum(b >= ball_stats[0] for b in ball_stats)) / (B + 1)

    perms = np.array(
        [list(g1) + [i for i in range(4) if i not in g1] for g1 in relabelings]
    )
    plan = PermutationPlan(B, scheme="raw_label_permutation", permutations=perms)
    design, hyp = DesignSpec(group_labels=[0, 0, 1, 1]), HypothesisSpec("t_two_sample_sq")
    materialised = pvalues(null_distribution(Y, design, hyp, fam, plan), fam)
    engine = run_inference(Y, design, hyp, fam, plan).p
    elapsed = time.monotonic() - start
    ok = elapsed < 1.0
    for p in (materialised, engine):
        ok &= np.array_equal(p.pointwise, p_point_oracle)
        ok &= np.array_equal(p.ballwise, p_ball_oracle)
    report(
        "exhaustive relabeling oracle (N=4, 6-vertex mesh)",
        ok,
        f"{fam.n_balls} balls, {elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def order6_mesh():
    m = build_icosphere(6)
    m.compute_weights()
    m.compute_distances()
    return m


@pytest.mark.slow
def test_ballwise_error_control(order6_mesh):
    # global-null two-sample on 362 vertices, full adjustment family
    start = time.monotonic()
    replicates = 250
    cfg = ScenarioConfig(
        n_samples=20,
        n_permutations=200,
        replicates=replicates,
        seed=20240,
        icosphere_order=6,
        radius_cap=np.inf,
        signal_amplitude=0.0,
        noise_bandwidth=0.2,
        noise_sd=1.0,
    )
    rates = run_scenario(cfg, mesh=order6_mesh)
    bound = ALPHA + 3 * np.sqrt(ALPHA * (1 - ALPHA) / replicates)
    elapsed = time.monotonic() - start
    ok = rates.fwer <= bound
    report(
        "ball-wise error control under the global null",
        ok,
        f"FWER {rates.fwer:.4f} <= {bound:.4f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_no_adjustment_limit(order6_mesh):
    # cap below the minimal vertex spacing: singleton balls only, so the
    # adjusted p behaves pointwise and the FPR sits at the nominal level
    start = time.monotonic()
    spacing = order6_mesh.distances[order6_mesh.distances > 0].min()
    cfg = ScenarioConfig(
        n_samples=20,
        n_permutations=200,
        replicates=250,
        seed=20241,
        icosphere_order=6,
        radius_cap=spacing / 2,
        signal_amplitude=0.0,
        noise_bandwidth=0.2,
        noise_sd=1.0,
    )
    rates = run_scenario(cfg, mesh=order6_mesh)
    elapsed = time.monotonic() - start
    ok = abs(rates.false_positive_rate - ALPHA) <= 0.015
    report(
        "no-adjustment pointwise FPR at nominal level",
        ok,
        f"FPR {rates.false_positive_rate:.4f} vs {ALPHA}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_tradeoff_trends():
    # sensitivity strictly increases with sample size (full adjustment) and
    # as the radius cap shrinks; FWER never decreases as the cap shrinks
    start = time.monotonic()
    m = build_icosphere(3)
    m.compute_weights()
    m.compute_distances()
    truth = cap_region_mask(m, 0, 0.65)

    def scenario(n_samples, cap):
        cfg = ScenarioConfig(
            n_samples=n_samples,
            n_permutations=100,
            replicates=100,
            seed=11,
            icosphere_order=3,
            radius_cap=cap,
            signal_amplitude=2.0,
            noise_bandwidth=0.3,
            noise_sd=1.0,
            truth_mask=truth,
        )
        return run_scenario(cfg, mesh=m)

    by_n = [scenario(n, np.inf) for n in (10, 20, 40)]
    by_cap = [by_n[1]] + [scenario(20, cap) for cap in (0.7, 0.1)]
    elapsed = time.monotonic() - start

    sens_n = [r.sensitivity for r in by_n]
    sens_cap = [r.sensitivity for r in by_cap]
    fwer_cap = [r.fwer for r in by_cap]
    ok = (
        sens_n[0] < sens_n[1] < sens_n[2]
        and sens_cap[0] < sens_cap[1] < sens_cap[2]
        and fwer_cap[0] <= fwer_cap[1] <= fwer_cap[2]
    )
    report(
        "power/error trade-off trends",
        ok,
        f"sens by N {['%.3f' % s for s in sens_n]}, "
        f"sens by cap {['%.3f' % s for s in sens_cap]}, "
        f"FWER by cap {['%.3f' % f for f in fwer_cap]}, {elapsed:.0f}s",
    )


def test_structural_invariants(unit_tetrahedron):
    start = time.monotonic()
    rng = np.random.default_rng(3)
    design = DesignSpec(group_labels=[0] * 5 + [1] * 5)
    hyp = HypothesisSpec("t_two_sample_sq")
    B = 60

    # one product-domain run under each cap; shared data
    mesh = unit_tetrahedron
    mesh.compute_weights()
    mesh.compute_distances()
    Y = rng.standard_normal((10, 4 * 6))
    adj = {}
    checks = []
    for cap in (0.5, 1.2, np.inf):
        dom = ProductDomain(
            [mesh_component(mesh, radius_cap=cap), circle_component(6)]
        )
        fam = enumerate_family(dom)
        plan = PermutationPlan(B, seed=17, scheme="raw_label_permutation")
        res = run_inference(Y, design, hyp, fam, plan)
        p = res.p
        checks.append(np.all(p.adjusted >= p.pointwise))
        for arr in (p.pointwise, p.ballwise, p.adjusted):
            k = np.round(arr * (B + 1))
            checks.append(np.allclose(arr, k / (B + 1), atol=1e-12))
            checks.append(np.all((k >= 1) & (k <= B + 1)))
        adj[cap] = p.adjusted
        # fixed-seed rerun is byte-identical
        rerun = run_inference(Y, design, hyp, fam, plan)
        checks.append(p.tobytes() == rerun.p.tobytes())
    checks.append(np.all(adj[1.2] >= adj[0.5] - 1e-15))
    checks.append(np.all(adj[np.inf] >= adj[1.2] - 1e-15))
    elapsed = time.monotonic() - start
    report(
        "structural invariants (dominance, cap monotonicity, p-grid, determinism)",
        all(checks),
        f"{elapsed:.1f}s",
    )
