"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The Monte Carlo criteria (error control under the global null and under
two partial nulls, and the power/error trade-off sweep) take a few minutes
combined; everything else is seconds.
"""

import itertools
import time

import numpy as np
import pytest
from scipy import stats

from ballwise.domain import (
    ProductDomain,
    circle_component,
    enumerate_component_balls,
    enumerate_family,
    mesh_component,
)
from ballwise.evalsim import ScenarioConfig, multi_patch_mask, run_scenario
from ballwise.glm import StatKernel
from ballwise.mesh import build_icosphere
from ballwise.permute import generate_permutations, run_inference
from oracles import (
    boundary_vertices,
    integrated_stat,
    notched_band,
    null_distribution,
    product_ball,
    pvalue_bytes,
    pvalues,
    total_weight,
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
        err[n] = abs(total_weight(m) - sphere_area) / sphere_area
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
    design, statistic = [0, 0, 1, 1], "t_two_sample_sq"
    materialised = pvalues(null_distribution(Y, statistic, design, fam, perms), fam)
    engine = run_inference(StatKernel(Y, statistic, design), fam, perms).p
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
    """The order-6 icosphere, weighed, and its all-pairs distance rows."""
    m = build_icosphere(6)
    m.compute_weights()
    return m, m.compute_distances()


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
        signal_amplitude=0.0,
        noise_bandwidth=0.2,
        noise_sd=1.0,
    )
    m, rows = order6_mesh
    domain = ProductDomain([mesh_component(m, radius_cap=np.inf, rows=rows)])
    rates = run_scenario(cfg, domain, np.zeros(domain.size, dtype=bool), rows)
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
    m, rows = order6_mesh
    d = rows.values
    spacing = d[d > 0].min()
    cfg = ScenarioConfig(
        n_samples=20,
        n_permutations=200,
        replicates=250,
        seed=20241,
        signal_amplitude=0.0,
        noise_bandwidth=0.2,
        noise_sd=1.0,
    )
    domain = ProductDomain([mesh_component(m, radius_cap=spacing / 2, rows=rows)])
    rates = run_scenario(cfg, domain, np.zeros(domain.size, dtype=bool), rows)
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
    rows = m.compute_distances()
    truth = multi_patch_mask(m, [0], 0.65)

    def scenario(n_samples, cap):
        cfg = ScenarioConfig(
            n_samples=n_samples,
            n_permutations=100,
            replicates=100,
            seed=11,
            signal_amplitude=2.0,
            noise_bandwidth=0.3,
            noise_sd=1.0,
        )
        domain = ProductDomain([mesh_component(m, radius_cap=cap, rows=rows)])
        return run_scenario(cfg, domain, truth, rows)

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


# Partial nulls under a finite cap: the null holds on a family ball B0 =
# mesh.ball(c, r) and a signal of amplitude 2 lies everywhere else, so the
# FWER of the rates is P(any rejection inside B0), which the ball-wise
# guarantee bounds by alpha
PARTIAL_CAP = 0.7


def partial_null(setting: str):
    """A mesh, its all-pairs distance rows, and the center c and the radius r
    of its B0: an order-6 icosphere with c = 0, r = 0.6, or the notched band
    (a boundary) with c its boundary vertex of least index, r = 0.5."""
    if setting == "icosphere":
        m, c, r = build_icosphere(6), 0, 0.6
    else:
        m = notched_band(6)
        c, r = int(boundary_vertices(m)[0]), 0.5
    return m, m.compute_distances(), c, r


@pytest.mark.parametrize("setting", ["icosphere", "notched-band"])
def test_null_ball_is_in_the_family(setting):
    # without it the partial-null gates would be vacuous: B0 is the first
    # |B0| points of row c, and that prefix is a ball kept under the cap
    m, rows, c, r = partial_null(setting)
    b0 = m.ball(c, r)
    balls = enumerate_component_balls(mesh_component(m, radius_cap=PARTIAL_CAP, rows=rows))
    k = len(b0)
    inner = balls.inner[c, k - 1]
    ok = inner < PARTIAL_CAP and np.array_equal(np.sort(balls.order[c, :k]), b0)
    report(f"B0 in the family on the {setting}", ok,
           f"|B0| = {k} of {m.n_vertices}, inner radius {inner:.4f} < {PARTIAL_CAP}")


@pytest.mark.slow
@pytest.mark.parametrize("setting, seed", [("icosphere", 20242), ("notched-band", 20243)])
def test_partial_null_error_control(setting, seed):
    start = time.monotonic()
    replicates = 250
    m, rows, c, r = partial_null(setting)
    truth = np.ones(m.n_vertices, dtype=bool)
    truth[m.ball(c, r)] = False
    cfg = ScenarioConfig(
        n_samples=20,
        n_permutations=200,
        replicates=replicates,
        seed=seed,
        signal_amplitude=2.0,
        noise_bandwidth=0.2,
        noise_sd=1.0,
    )
    domain = ProductDomain([mesh_component(m, radius_cap=PARTIAL_CAP, rows=rows)])
    rates = run_scenario(cfg, domain, truth, rows)
    bound = ALPHA + 3 * np.sqrt(ALPHA * (1 - ALPHA) / replicates)
    elapsed = time.monotonic() - start
    report(
        f"ball-wise error control under a partial null on the {setting}",
        rates.fwer <= bound,
        f"P(reject in B0) {rates.fwer:.4f} <= {bound:.4f}, "
        f"sensitivity {rates.sensitivity:.3f}, {elapsed:.1f}s",
    )


def test_structural_invariants(unit_tetrahedron):
    start = time.monotonic()
    rng = np.random.default_rng(3)
    design = [0] * 5 + [1] * 5
    statistic = "t_two_sample_sq"
    B = 60

    # one product-domain run under each cap; shared data
    mesh = unit_tetrahedron
    mesh.compute_weights()
    Y = rng.standard_normal((10, 4 * 6))
    adj = {}
    checks = []
    for cap in (0.5, 1.2, np.inf):
        dom = ProductDomain(
            [mesh_component(mesh, radius_cap=cap), circle_component(6)]
        )
        fam = enumerate_family(dom)
        perms = generate_permutations(B, 17, len(Y))
        res = run_inference(StatKernel(Y, statistic, design), fam, perms)
        p = res.p
        checks.append(np.all(p.adjusted >= p.pointwise))
        for arr in (p.pointwise, p.ballwise, p.adjusted):
            k = np.round(arr * (B + 1))
            checks.append(np.allclose(arr, k / (B + 1), atol=1e-12))
            checks.append(np.all((k >= 1) & (k <= B + 1)))
        adj[cap] = p.adjusted
        # fixed-seed rerun is byte-identical
        rerun = run_inference(StatKernel(Y, statistic, design), fam, perms)
        checks.append(pvalue_bytes(p) == pvalue_bytes(rerun.p))
    checks.append(np.all(adj[1.2] >= adj[0.5] - 1e-15))
    checks.append(np.all(adj[np.inf] >= adj[1.2] - 1e-15))
    elapsed = time.monotonic() - start
    report(
        "structural invariants (dominance, cap monotonicity, p-grid, determinism)",
        all(checks),
        f"{elapsed:.1f}s",
    )
