import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from ballwise import evalsim
from ballwise.domain import TILE_VALUES, ProductDomain, circle_component, mesh_component
from ballwise.evalsim import (
    REPLICATE_BYTES,
    SEED_BYTES,
    GaussianFieldSampler,
    ScenarioConfig,
    compute_error_rates,
    multi_patch_mask,
    run_scenario,
)
from ballwise.mesh import TriangulatedManifold, build_icosphere

PATH_DISTANCES = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
PATH_ROWS = oracles.distance_rows(PATH_DISTANCES)


class UnitDraws:
    """A stand-in generator whose n draws are the n unit vectors, so that a
    sampler's ``sample`` returns sd A', whose Gram matrix sd^2 A A' is the
    covariance its noise is drawn from."""

    def standard_normal(self, shape):
        return np.eye(shape[1])[:shape[0]]


def drawn_covariance(sampler):
    factor = sampler.sample(UnitDraws(), len(sampler.kernel))
    return factor.T @ factor


class TestGaussianFieldSampler:
    def test_tiny_bandwidth_is_iid(self):
        # no other vertex is within 3h: each row of A is its own unit vector
        for bandwidth in (1e-4, 1e-200):
            s = GaussianFieldSampler(PATH_ROWS, np.ones(3), bandwidth=bandwidth, sd=2.0)
            np.testing.assert_array_equal(drawn_covariance(s), 4.0 * np.eye(3))

    def test_huge_bandwidth_is_common_factor(self):
        for bandwidth in (1e4, 1e200):
            s = GaussianFieldSampler(PATH_ROWS, [1.0, 2.0, 0.5], bandwidth=bandwidth, sd=1.0)
            np.testing.assert_allclose(drawn_covariance(s), np.ones((3, 3)), atol=1e-6)

    def test_factor_reproduces_kernel(self):
        # 3h = 1.8 cuts the pair (0, 2) at distance 2 out of A
        w = np.array([1.0, 2.0, 0.5])
        s = GaussianFieldSampler(PATH_ROWS, w, bandwidth=0.6, sd=1.3)
        expected = oracles.convolution_factor(PATH_DISTANCES, w, 0.6)
        assert expected[0, 2] == expected[2, 0] == 0.0
        np.testing.assert_allclose(s.sample(UnitDraws(), 3), 1.3 * expected.T,
                                   rtol=1e-15, atol=0)

    def test_monte_carlo_covariance(self, triangle_strip):
        # 3-vertex sub-check on a real mesh: empirical covariance of 1e5
        # draws within 0.02 of the covariance drawn from, A A'
        rows = triangle_strip.compute_distances()
        w = triangle_strip.compute_weights().weights
        s = GaussianFieldSampler(rows, w, 1.0, 1.0)
        draws = s.sample(np.random.default_rng(123), 100_000)
        emp = np.cov(draws[:, :3].T)
        A = oracles.convolution_factor(oracles.rows_to_dense(rows), w, 1.0)
        expected = (A @ A.T)[:3, :3]
        assert np.abs(emp - expected).max() < 0.02

    def test_zero_mean(self, triangle_strip):
        s = GaussianFieldSampler(triangle_strip.compute_distances(),
                                 triangle_strip.compute_weights().weights, 0.5, 1.0)
        draws = s.sample(np.random.default_rng(7), 50_000)
        assert np.abs(draws.mean(axis=0)).max() < 0.02

    def test_invalid_parameters(self):
        for bandwidth, sd in ((0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError, match="must be positive"):
                GaussianFieldSampler(PATH_ROWS, np.ones(3), bandwidth=bandwidth, sd=sd)
        with pytest.raises(ValueError, match="2 weights do not match the 3 rows"):
            GaussianFieldSampler(PATH_ROWS, np.ones(2), bandwidth=1.0, sd=1.0)

    def test_rows_short_of_three_bandwidths_refused(self):
        # rows searched to 0.5 miss the pairs from 0.5 to 3h = 0.9; those
        # searched to 0.9, and all pairs, hold them
        m = build_icosphere(4).compute_weights()
        with pytest.raises(ValueError, match=r"the distances hold every entry only below 0\.5, "
                                             r"short of 3 \* bandwidth = 0\.9"):
            GaussianFieldSampler(m.compute_distances(limit=0.5), m.weights, bandwidth=0.3, sd=1.0)
        full = GaussianFieldSampler(m.compute_distances(), m.weights, bandwidth=0.3, sd=1.0)
        reach = GaussianFieldSampler(m.compute_distances(limit=0.9), m.weights, 0.3, 1.0)
        assert reach.kernel.tobytes() == full.kernel.tobytes()

    def test_size_limit(self, monkeypatch):
        # the kernel's slots within 3h and one tile
        m = build_icosphere(4).compute_weights()
        rows = m.compute_distances()
        L = rows.below(0.9).values.shape[1]
        need = evalsim.NOISE_SLOT_BYTES * 162 * L + evalsim.NOISE_TILE_BYTES * TILE_VALUES
        monkeypatch.setattr(evalsim, "memory_limit", lambda: need)
        GaussianFieldSampler(rows, m.weights, bandwidth=0.3, sd=1.0)
        monkeypatch.setattr(evalsim, "memory_limit", lambda: need - 1)
        with pytest.raises(ValueError, match=f"noise kernel of 162 points by {L} neighbours "
                                             "would need up to .*; use a smaller noise_bandwidth"):
            GaussianFieldSampler(rows, m.weights, bandwidth=0.3, sd=1.0)

    def test_covariance_matches_dense_kernel(self):
        # the covariance drawn is sd^2 A A' of the dense oracle, from the
        # all-pairs rows, to rounding, and its diagonal is sd^2
        m = build_icosphere(3).compute_weights()
        rows = m.compute_distances()
        s = GaussianFieldSampler(rows, m.weights, bandwidth=0.4, sd=1.3)
        A = oracles.convolution_factor(oracles.rows_to_dense(rows), m.weights, 0.4)
        cov = drawn_covariance(s)
        np.testing.assert_allclose(cov, 1.3**2 * (A @ A.T), rtol=0, atol=1e-14)
        np.testing.assert_allclose(np.diag(cov), 1.3**2, rtol=1e-15)
        assert np.all(np.linalg.eigvalsh(A @ A.T) > -1e-14)

    def test_rows_searched_to_3h_match_all_pairs(self):
        # the noise reads the rows below 3h only: a search to 3h, to more,
        # and all pairs give the same bits
        m = build_icosphere(4).compute_weights()
        fields = [
            GaussianFieldSampler(rows, m.weights, bandwidth=0.3, sd=1.0)
            .sample(np.random.default_rng(5), 7).tobytes()
            for rows in (m.compute_distances(limit=0.9), m.compute_distances(limit=1.4),
                         m.compute_distances())
        ]
        assert fields[0] == fields[1] == fields[2]

    def test_tiles_do_not_change_the_bits(self, monkeypatch):
        # each row's neighbours are summed on their own, whatever the tile
        m = build_icosphere(4).compute_weights()
        rows = m.compute_distances(limit=0.9)
        fields = []
        for tile in (TILE_VALUES, 7, 1):
            monkeypatch.setattr(evalsim, "TILE_VALUES", tile)
            s = GaussianFieldSampler(rows, m.weights, bandwidth=0.3, sd=1.0)
            fields.append(s.sample(np.random.default_rng(5), 7).tobytes())
        assert fields[0] == fields[1] == fields[2]

    def test_simulate_does_not_depend_on_blas_threads(self, tmp_path):
        # the noise makes no BLAS call; the two runs also cover the stat
        # kernel's products on 1 and 2 threads
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

    def test_disconnected_parts_are_uncorrelated(self):
        # two triangles that share no edge: no pair across them is in any
        # row, so their covariance is exactly 0
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                          [5, 0, 0], [6, 0, 0], [5, 1, 0]], dtype=float)
        m = TriangulatedManifold(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        with pytest.warns(UserWarning, match="disconnected"):
            rows = m.compute_distances()
        s = GaussianFieldSampler(rows, m.compute_weights().weights, bandwidth=10.0, sd=1.0)
        cov = drawn_covariance(s)
        assert not cov[:3, 3:].any() and not cov[3:, :3].any()
        assert (cov[:3, :3] > 0.9).all() and (cov[3:, 3:] > 0.9).all()


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

    @pytest.mark.parametrize("replicates", [1, 2, 300])
    def test_matches_whole_mask_products(self, replicates):
        # summed one replicate at a time, so the order of the adds may change:
        # a relative m eps
        rng = np.random.default_rng(replicates)
        rej = rng.random((replicates, 642)) < 0.2
        truth = rng.random(642) < 0.3
        w = rng.random(642) ** 3
        r = compute_error_rates(rej, truth, w)
        got = (r.sensitivity, r.fwer, r.false_positive_rate, r.false_discovery_rate)
        expected = oracles.error_rates_whole(rej, truth, w)
        np.testing.assert_allclose(got, expected, rtol=642 * np.finfo(float).eps, atol=0)

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
        mask = multi_patch_mask(m, [0], 0.9)
        assert mask[0]
        assert 1 < mask.sum() < m.n_vertices

    def test_multi_patch_union(self):
        m = build_icosphere(2)
        a = multi_patch_mask(m, [0], 0.5)
        b = multi_patch_mask(m, [11], 0.5)
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

    # the order-1 icosphere's all-pairs rows, which reach the noise's 3h
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
        truth = multi_patch_mask(m, [0], 1.2)
        cfg = self._base_cfg(replicates=2, signal_amplitude=50.0)
        domain = ProductDomain([mesh_component(m, radius_cap=0.05)])
        rates = run_scenario(cfg, domain, truth, self.ROWS)
        assert rates.sensitivity == pytest.approx(1.0)

    def test_mesh_searched_to_the_cap_is_searched_in_full(self):
        # the noise reads its own rows, all pairs here: a component searched
        # only to its cap, with those rows beside it, gives the rates of one
        # cut from them
        cfg = self._base_cfg(replicates=2, signal_amplitude=2.0)
        truth = multi_patch_mask(build_icosphere(1), [0], 1.2)
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

    def test_replicate_memory(self, monkeypatch):
        # at m = 642 the peak grows per replicate by its mask and its seed,
        # as the replicates check counts them; the noise, the family and
        # inference are stand-ins, so the masks set the peak
        mesh = build_icosphere(8)
        rows = mesh.compute_distances(limit=0.1)
        domain = ProductDomain([mesh_component(mesh, radius_cap=0.1, rows=rows)])
        rng = np.random.default_rng(0)

        class Noise:
            def __init__(self, *args):
                pass

            def sample(self, rng, n_draws):
                return rng.standard_normal((n_draws, domain.size))

        monkeypatch.setattr(evalsim, "GaussianFieldSampler", Noise)
        monkeypatch.setattr(evalsim, "enumerate_family", lambda *args: None)
        monkeypatch.setattr(evalsim, "run_inference", lambda *args: SimpleNamespace(
            p=SimpleNamespace(adjusted=rng.random(domain.size))))
        truth = np.arange(domain.size) < 100
        peaks = []
        for replicates in (1000, 3000):
            tracemalloc.start()
            try:
                run_scenario(self._base_cfg(replicates=replicates), domain, truth, rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_replicate = (peaks[1] - peaks[0]) / 2000
        assert REPLICATE_BYTES * domain.size < per_replicate
        assert per_replicate <= REPLICATE_BYTES * domain.size + SEED_BYTES

    def test_masks_returned(self):
        cfg = self._base_cfg(replicates=2)
        rates, masks = run_scenario(cfg, self._domain(), np.zeros(12, dtype=bool), self.ROWS,
                                    return_masks=True)
        assert masks.shape == (2, 12)
        assert rates.n_replicates == 2
