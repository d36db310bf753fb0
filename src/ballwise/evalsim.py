"""Monte Carlo evaluation: two-sample signals with spatially correlated
Gaussian noise on a mesh, scenario sweeps over sample size and radius cap,
and the resulting error-rate metrics.

Error rates are measure-weighted: denominators use the vertex quadrature
weights, so rates approximate area fractions rather than vertex counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import ProductDomain, enumerate_family, mesh_component
from .glm import DesignSpec, HypothesisSpec
from .mesh import DistanceRows, TriangulatedManifold, build_icosphere, load_mesh
from .permute import PermutationPlan, run_inference

__all__ = [
    "ScenarioConfig",
    "ErrorRates",
    "GaussianFieldSampler",
    "gaussian_kernel_noise",
    "compute_error_rates",
    "run_scenario",
    "cap_region_mask",
    "multi_patch_mask",
]

# Dense covariance square roots only; larger meshes need a user-supplied
# noise sampler.
MAX_NOISE_VERTICES = 2000


def _check_noise_vertices(n: int) -> None:
    if n > MAX_NOISE_VERTICES:
        raise ValueError(
            f"dense covariance limited to {MAX_NOISE_VERTICES} vertices, the "
            f"mesh has {n}; supply your own noise generator for larger meshes"
        )


class GaussianFieldSampler:
    """Zero-mean Gaussian field on mesh vertices with squared-exponential
    covariance sd^2 * exp(-d(x,y)^2 / (2 * bandwidth^2)).

    Realized through the symmetric square root of the dense covariance
    matrix, built from all-pairs ``DistanceRows`` (every row holds every
    vertex). With graph-geodesic distances on a curved mesh this kernel need
    not be positive semidefinite; negative eigenvalues are clamped to zero,
    so the field's covariance is the PSD eigenvalue projection of the kernel
    (``clamped_mass`` reports how much was removed, relative to the trace).
    """

    def __init__(self, distances: DistanceRows, bandwidth: float, sd: float):
        if bandwidth <= 0 or sd <= 0:
            raise ValueError("bandwidth and sd must be positive")
        n = len(distances)
        _check_noise_vertices(n)
        if distances.values.shape != (n, n) or np.isinf(distances.values).any():
            raise ValueError("noise covariance needs finite all-pairs distances")
        d = np.empty((n, n))
        d[np.arange(n)[:, None], distances.indices] = distances.values
        cov = sd ** 2 * np.exp(-(d ** 2) / (2.0 * bandwidth ** 2))
        try:
            vals, vecs = np.linalg.eigh(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"covariance factorization failed: {exc}") from exc
        self.clamped_mass = float(-vals[vals < 0].sum() / np.trace(cov))
        # the symmetric root V sqrt(D) V', not V sqrt(D): eigenvalues of an
        # icosphere's covariance repeat, and the basis LAPACK picks within a
        # repeated eigenspace (with it every field drawn through V sqrt(D))
        # depends on its thread count; the symmetric root does not
        self.factor = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        self.n_vertices = n

    def sample(self, rng: np.random.Generator, n_draws: int = 1) -> np.ndarray:
        """(n_draws, n_vertices) independent field realizations."""
        z = rng.standard_normal((n_draws, self.n_vertices))
        return z @ self.factor.T


def gaussian_kernel_noise(
    m: TriangulatedManifold, bandwidth: float, sd: float, seed: int, n_draws: int = 1
) -> np.ndarray:
    """Draw Gaussian-kernel noise fields on the vertices of a mesh."""
    if m.distances is None:
        m.compute_distances()
    sampler = GaussianFieldSampler(m.distances, bandwidth, sd)
    return sampler.sample(np.random.default_rng(seed), n_draws)


@dataclass
class ErrorRates:
    """Aggregated metrics of a scenario; sensitivity is None under a global
    null (empty truth mask)."""

    sensitivity: float | None
    fwer: float
    false_positive_rate: float
    false_discovery_rate: float
    n_replicates: int


def compute_error_rates(
    rejections: np.ndarray, truth_mask: np.ndarray, weights: np.ndarray
) -> ErrorRates:
    """Measure-weighted error metrics over replicate rejection masks.

    ``rejections`` is (replicates, n) boolean, ``truth_mask`` the length-n
    boolean set where the null is false. Sensitivity averages the rejected
    fraction of the truth region; FWER is the fraction of replicates with any
    rejection outside it; FPR averages the rejected fraction of the null
    region; FDR averages false rejections over total rejections (0 when a
    replicate rejects nothing).
    """
    R = np.atleast_2d(np.asarray(rejections, dtype=bool))
    truth = np.asarray(truth_mask, dtype=bool)
    w = np.asarray(weights, dtype=float)
    if R.shape[1] != truth.shape[0] or truth.shape[0] != w.shape[0]:
        raise ValueError("masks and weights must cover the same vertex set")

    truth_w = w[truth].sum()
    null_w = w[~truth].sum()
    true_pos = (R[:, truth] * w[truth]).sum(axis=1)
    false_pos = (R[:, ~truth] * w[~truth]).sum(axis=1)
    total_rej = (R * w).sum(axis=1)

    sensitivity = float(np.mean(true_pos / truth_w)) if truth_w > 0 else None
    fwer = float(np.mean(false_pos > 0))
    fpr = float(np.mean(false_pos / null_w)) if null_w > 0 else 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        fdr_per = np.where(total_rej > 0, false_pos / np.where(total_rej > 0, total_rej, 1.0), 0.0)
    return ErrorRates(
        sensitivity=sensitivity,
        fwer=fwer,
        false_positive_rate=fpr,
        false_discovery_rate=float(np.mean(fdr_per)),
        n_replicates=R.shape[0],
    )


def cap_region_mask(m: TriangulatedManifold, center: int, radius: float) -> np.ndarray:
    """Boolean mask of one connected geodesic patch around ``center``."""
    mask = np.zeros(m.n_vertices, dtype=bool)
    mask[m.ball(center, radius)] = True
    return mask


def multi_patch_mask(
    m: TriangulatedManifold, centers, radius: float
) -> np.ndarray:
    """Union of geodesic patches: a scattered multi-region truth mask."""
    mask = np.zeros(m.n_vertices, dtype=bool)
    for c in centers:
        mask |= cap_region_mask(m, c, radius)
    return mask


@dataclass
class ScenarioConfig:
    """One simulation scenario: two-sample signals on a mesh.

    Exactly one of ``mesh_path`` / ``icosphere_order`` selects the domain.
    ``truth_mask`` is the vertex set carrying the base signal (the region
    where the null is false); empty means a global null.
    """

    n_samples: int
    n_permutations: int
    replicates: int
    seed: int
    alpha: float = 0.05
    radius_cap: float = math.inf
    signal_amplitude: float = 0.0
    noise_bandwidth: float = 0.3
    noise_sd: float = 1.0
    icosphere_order: int | None = None
    icosphere_radius: float = 1.0
    mesh_path: str | None = None
    truth_mask: np.ndarray | None = None
    scenario_id: str = ""

    def __post_init__(self):
        if (self.icosphere_order is None) == (self.mesh_path is None):
            raise ValueError("specify exactly one of icosphere_order and mesh_path")
        if self.n_samples % 2 != 0 or self.n_samples < 4:
            raise ValueError("n_samples must be even and at least 4")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if self.noise_bandwidth <= 0 or self.noise_sd <= 0:
            raise ValueError("noise scale parameters must be positive")
        if self.icosphere_order is not None:
            _check_noise_vertices(10 * self.icosphere_order ** 2 + 2)

    def build_mesh(self) -> TriangulatedManifold:
        if self.mesh_path is not None:
            m = load_mesh(self.mesh_path)
            _check_noise_vertices(m.n_vertices)
        else:
            m = build_icosphere(self.icosphere_order, self.icosphere_radius)
        m.compute_weights()
        m.compute_distances()
        return m


def run_scenario(
    cfg: ScenarioConfig,
    mesh: TriangulatedManifold | None = None,
    return_masks: bool = False,
):
    """Run one scenario: simulate, test, threshold the adjusted p-values.

    Half the observations carry the base signal on the truth region, half
    are pure noise; inference is the two-sample pipeline with raw label
    permutations (exact under the exchangeable null). Returns ``ErrorRates``,
    or ``(ErrorRates, masks)`` with the (replicates, n) rejection masks when
    ``return_masks`` is set.
    """
    m = mesh if mesh is not None else cfg.build_mesh()
    truth = (
        np.zeros(m.n_vertices, dtype=bool)
        if cfg.truth_mask is None
        else np.asarray(cfg.truth_mask, dtype=bool)
    )
    if truth.shape != (m.n_vertices,):
        raise ValueError("truth_mask does not match the mesh vertex set")

    domain = ProductDomain([mesh_component(m, radius_cap=cfg.radius_cap)])
    family = enumerate_family(domain)
    sampler = GaussianFieldSampler(m.distances, cfg.noise_bandwidth, cfg.noise_sd)

    groups = np.repeat([0, 1], cfg.n_samples // 2)
    design = DesignSpec(group_labels=groups)
    hyp = HypothesisSpec(statistic="t_two_sample_sq")
    base = np.where(truth, cfg.signal_amplitude, 0.0)

    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    masks = np.zeros((cfg.replicates, m.n_vertices), dtype=bool)
    for r, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        Y = sampler.sample(rng, cfg.n_samples)
        Y[groups == 1] += base
        plan = PermutationPlan(
            n_permutations=cfg.n_permutations,
            seed=int(rng.integers(2 ** 63)),
            scheme="raw_label_permutation",
        )
        result = run_inference(Y, design, hyp, family, plan)
        masks[r] = result.p.adjusted <= cfg.alpha

    rates = compute_error_rates(masks, truth, m.weights)
    return (rates, masks) if return_masks else rates
