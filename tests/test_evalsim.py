import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from ballwise.domain import ProductDomain, circle_component, mesh_component
from ballwise.evalsim import (
    GaussianFieldSampler,
    ScenarioConfig,
    cap_region_mask,
    compute_error_rates,
    multi_patch_mask,
    run_scenario,
)
from ballwise.mesh import DistanceRows, build_icosphere

PATH_DISTANCES = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
PATH_ROWS = oracles.distance_rows(PATH_DISTANCES)


class TestGaussianFieldSampler:
    def test_tiny_bandwidth_is_iid(self):
        s = GaussianFieldSampler(PATH_ROWS, bandwidth=1e-4, sd=2.0)
        cov = s.factor @ s.factor.T
        np.testing.assert_allclose(cov, 4.0 * np.eye(3), atol=1e-8)

    def test_huge_bandwidth_is_common_factor(self):
        s = GaussianFieldSampler(PATH_ROWS, bandwidth=1e4, sd=1.0)
        cov = s.factor @ s.factor.T
        np.testing.assert_allclose(cov, np.ones((3, 3)), atol=1e-6)

    def test_factor_reproduces_kernel(self):
        s = GaussianFieldSampler(PATH_ROWS, bandwidth=0.7, sd=1.3)
        expected = 1.3 ** 2 * np.exp(-PATH_DISTANCES ** 2 / (2 * 0.7 ** 2))
        np.testing.assert_allclose(s.factor @ s.factor.T, expected, atol=1e-10)

    def test_monte_carlo_covariance(self, triangle_strip):
        # 3-vertex sub-check on a real mesh: empirical covariance of 1e5
        # draws within 0.02 of the closed-form kernel
        rows = triangle_strip.compute_distances()
        s = GaussianFieldSampler(rows, 1.0, 1.0)
        draws = s.sample(np.random.default_rng(123), 100_000)
        emp = np.cov(draws[:, :3].T)
        d = oracles.rows_to_dense(rows)[:3, :3]
        expected = np.exp(-(d ** 2) / 2.0)
        assert np.abs(emp - expected).max() < 0.02

    def test_zero_mean(self, triangle_strip):
        s = GaussianFieldSampler(triangle_strip.compute_distances(), 0.5, 1.0)
        draws = s.sample(np.random.default_rng(7), 50_000)
        assert np.abs(draws.mean(axis=0)).max() < 0.02

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianFieldSampler(PATH_ROWS, bandwidth=0.0, sd=1.0)
        with pytest.raises(ValueError):
            GaussianFieldSampler(PATH_ROWS, bandwidth=1.0, sd=-1.0)

    def test_size_limit(self):
        # refused on its row count, before any row is read
        d = DistanceRows(np.empty((2001, 0), np.int32), np.empty((2001, 0)))
        with pytest.raises(ValueError, match="dense covariance"):
            GaussianFieldSampler(d, bandwidth=1.0, sd=1.0)

    def test_covariance_matches_dense_kernel(self):
        m = build_icosphere(3)
        s = GaussianFieldSampler(m.compute_distances(), bandwidth=0.4, sd=1.0)
        d = oracles.dense_dijkstra(m)
        cov = np.exp(-(d**2) / (2 * 0.4**2))
        vals, vecs = np.linalg.eigh(cov)
        expected = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        assert s.factor.tobytes() == expected.tobytes()

    def test_simulate_does_not_depend_on_blas_threads(self, tmp_path):
        # an icosphere's covariance has eigenvalues of multiplicity 3 and 5,
        # whose eigenbasis LAPACK picks differently on 1 and 2 threads
        scenario = {
            "id": "cap", "icosphere_order": 4, "n_samples": 10, "permutations": 19,
            "replicates": 2, "seed": 5, "signal_amplitude": 1.5, "radius_cap": 0.5,
            "truth": {"type": "cap", "center": 7, "radius": 0.6},
        }
        (tmp_path / "sweep.json").write_text(json.dumps([scenario]))
        src = str(Path(__file__).resolve().parents[1] / "src")
        rates = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"rates{threads}.csv"
            subprocess.run(
                [sys.executable, "-m", "ballwise.cli", "simulate",
                 "--config", "sweep.json", "--out", out.name],
                cwd=tmp_path, env=env, check=True, capture_output=True,
            )
            rates.append(out.read_bytes())
        assert rates[0] == rates[1]

    def test_infinite_distances_rejected(self):
        d = PATH_DISTANCES.copy()
        d[0, 2] = d[2, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            GaussianFieldSampler(oracles.distance_rows(d), bandwidth=1.0, sd=1.0)


class TestErrorRates:
    def test_reject_everything_truth_everything(self):
        rej = np.ones((1, 4), dtype=bool)
        truth = np.ones(4, dtype=bool)
        r = compute_error_rates(rej, truth, np.ones(4))
        assert r.sensitivity == 1.0
        assert r.fwer == 0.0
        assert r.false_positive_rate == 0.0
        assert r.false_discovery_rate == 0.0

    def test_reject_nothing(self):
        rej = np.zeros((3, 4), dtype=bool)
        truth = np.array([True, True, False, False])
        r = compute_error_rates(rej, truth, np.ones(4))
        assert r.sensitivity == 0.0
        assert r.fwer == 0.0
        assert r.false_positive_rate == 0.0
        assert r.false_discovery_rate == 0.0

    def test_direct_counting(self):
        # truth = {0, 1}, rejected = {1, 2}: half the truth found, one false
        # positive among two null vertices, half the rejections false
        rej = np.array([[False, True, True, False]])
        truth = np.array([True, True, False, False])
        r = compute_error_rates(rej, truth, np.ones(4))
        assert r.sensitivity == pytest.approx(0.5)
        assert r.fwer == 1.0
        assert r.false_positive_rate == pytest.approx(0.5)
        assert r.false_discovery_rate == pytest.approx(0.5)

    def test_weighted_denominators(self):
        rej = np.array([[True, False, True, False]])
        truth = np.array([True, True, False, False])
        w = np.array([3.0, 1.0, 1.0, 3.0])
        r = compute_error_rates(rej, truth, w)
        assert r.sensitivity == pytest.approx(3.0 / 4.0)
        assert r.false_positive_rate == pytest.approx(1.0 / 4.0)
        assert r.false_discovery_rate == pytest.approx(1.0 / 4.0)

    def test_global_null_sensitivity_none(self):
        rej = np.zeros((2, 3), dtype=bool)
        truth = np.zeros(3, dtype=bool)
        r = compute_error_rates(rej, truth, np.ones(3))
        assert r.sensitivity is None

    def test_fwer_at_least_fpr_positivity(self):
        rng = np.random.default_rng(0)
        rej = rng.random((20, 10)) < 0.3
        truth = np.zeros(10, dtype=bool)
        truth[:3] = True
        r = compute_error_rates(rej, truth, np.ones(10))
        assert (r.false_positive_rate > 0) <= (r.fwer > 0)


class TestTruthMasks:
    def test_cap_region_connected(self):
        m = build_icosphere(2)
        mask = cap_region_mask(m, 0, 0.9)
        assert mask[0]
        assert 1 < mask.sum() < m.n_vertices

    def test_multi_patch_union(self):
        m = build_icosphere(2)
        a = cap_region_mask(m, 0, 0.5)
        b = cap_region_mask(m, 11, 0.5)
        np.testing.assert_array_equal(multi_patch_mask(m, [0, 11], 0.5), a | b)


class TestRunScenario:
    def _base_cfg(self, **kwargs):
        defaults = dict(
            n_samples=8,
            n_permutations=20,
            replicates=3,
            seed=42,
            noise_bandwidth=0.5,
            noise_sd=1.0,
        )
        defaults.update(kwargs)
        return ScenarioConfig(**defaults)

    # the order-1 icosphere's all-pairs rows, which the noise reads
    ROWS = build_icosphere(1).compute_distances()

    def _domain(self, cap=math.inf):
        m = build_icosphere(1)
        return ProductDomain([mesh_component(m, radius_cap=cap, rows=self.ROWS)])

    def test_determinism(self):
        cfg = self._base_cfg()
        null = np.zeros(12, dtype=bool)
        r1 = run_scenario(cfg, self._domain(), null, self.ROWS)
        r2 = run_scenario(cfg, self._domain(), null, self.ROWS)
        assert r1 == r2

    def test_global_null_reports_no_sensitivity(self):
        rates = run_scenario(self._base_cfg(), self._domain(), np.zeros(12, dtype=bool),
                             self.ROWS)
        assert rates.sensitivity is None
        assert 0.0 <= rates.fwer <= 1.0

    def test_separation_limit(self):
        # huge amplitude, cap below vertex spacing: every truth vertex found
        m = build_icosphere(1)
        truth = cap_region_mask(m, 0, 1.2)
        cfg = self._base_cfg(replicates=2, signal_amplitude=50.0)
        domain = ProductDomain([mesh_component(m, radius_cap=0.05)])
        rates = run_scenario(cfg, domain, truth, self.ROWS)
        assert rates.sensitivity == pytest.approx(1.0)

    def test_mesh_searched_to_the_cap_is_searched_in_full(self):
        # the noise reads every pair: a component searched only to its cap,
        # with the all-pairs rows beside it, gives the rates of one cut from
        # those rows
        cfg = self._base_cfg(replicates=2, signal_amplitude=2.0)
        truth = cap_region_mask(build_icosphere(1), 0, 1.2)
        searched = ProductDomain([mesh_component(build_icosphere(1), radius_cap=0.8)])
        assert np.isfinite(searched.components[0].rows.values).sum() < 12 * 12
        rates = run_scenario(cfg, searched, truth, self.ROWS)
        assert rates == run_scenario(cfg, self._domain(cap=0.8), truth, self.ROWS)

    @pytest.mark.parametrize("components", [
        lambda: [mesh_component(build_icosphere(1)), circle_component(4)],
        lambda: [circle_component(12)],
    ], ids=["mesh-by-circle", "circle"])
    def test_only_one_mesh(self, components):
        domain = ProductDomain(components())
        truth = np.zeros(domain.size, dtype=bool)
        with pytest.raises(ValueError, match="exactly one mesh component"):
            run_scenario(self._base_cfg(), domain, truth, self.ROWS)

    def test_odd_samples_rejected(self):
        with pytest.raises(ValueError, match="even"):
            self._base_cfg(n_samples=7)

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError, match="truth mask"):
            run_scenario(self._base_cfg(), self._domain(), np.zeros(5, dtype=bool), self.ROWS)

    def test_distances_checked(self):
        # the noise's rows must be the domain's mesh's: twelve points here
        rows = build_icosphere(2).compute_distances()
        with pytest.raises(ValueError, match="distances of 42 rows"):
            run_scenario(self._base_cfg(), self._domain(), np.zeros(12, dtype=bool), rows)

    def test_masks_returned(self):
        cfg = self._base_cfg(replicates=2)
        rates, masks = run_scenario(cfg, self._domain(), np.zeros(12, dtype=bool), self.ROWS,
                                    return_masks=True)
        assert masks.shape == (2, 12)
        assert rates.n_replicates == 2
