"""Monte Carlo evaluation: two-sample signals with spatially correlated
Gaussian noise on a one-mesh domain, scenario sweeps over sample size and
radius cap, and the resulting error-rate metrics.

Error rates are measure-weighted: denominators use the domain's quadrature
weights, so rates approximate area fractions rather than point counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ProductDomain, enumerate_family
from .glm import StatKernel
from .mesh import DistanceRows, TriangulatedManifold, check_memory, memory_limit
from .permute import check_permutations, generate_permutations, run_inference

__all__ = [
    "ScenarioConfig",
    "ErrorRates",
    "GaussianFieldSampler",
    "compute_error_rates",
    "run_scenario",
    "cap_region_mask",
    "multi_patch_mask",
]

# Dense covariance square roots only; larger meshes need a user-supplied
# noise sampler.
MAX_NOISE_VERTICES = 2000

# Bytes per domain point for each sample (the noise draw and its field) and
# replicate (its rejection mask), and per replicate for its seed:
# run_scenario's tracemalloc peak grows by 16.2, 1.0 and 367-376 at m = 642.
SAMPLE_BYTES = 17
REPLICATE_BYTES = 1
SEED_BYTES = 400


def _check_noise_vertices(n: int) -> None:
    if n > MAX_NOISE_VERTICES:
        raise ValueError(
            f"dense covariance limited to {MAX_NOISE_VERTICES} vertices, the "
            f"mesh has {n}; supply your own noise generator for larger meshes"
        )


def _check_one_mesh(domain: ProductDomain) -> None:
    """Refuse a domain that is not one mesh component: the noise has no
    product form."""
    if len(domain.components) != 1 or domain.components[0].kind != "mesh":
        raise ValueError("the noise sampler needs a domain of exactly one mesh component")


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

    w_true, w_null = w[truth], w[~truth]
    truth_w, null_w = w_true.sum(), w_null.sum()
    # one replicate at a time, so no (replicates, n) float product is held
    true_pos, false_pos, total_rej = np.empty((3, len(R)))
    for r, row in enumerate(R):
        true_pos[r] = (row[truth] * w_true).sum()
        false_pos[r] = (row[~truth] * w_null).sum()
        total_rej[r] = (row * w).sum()

    sensitivity = float(np.mean(true_pos / truth_w)) if truth_w > 0 else None
    fwer = float(np.mean(false_pos > 0))
    fpr = float(np.mean(false_pos / null_w)) if null_w > 0 else 0.0
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
    return multi_patch_mask(m, [center], radius)


def multi_patch_mask(m: TriangulatedManifold, centers, radius: float) -> np.ndarray:
    """Union of geodesic patches: a scattered multi-region truth mask."""
    mask = np.zeros(m.n_vertices, dtype=bool)
    for c in centers:
        mask[m.ball(c, radius)] = True
    return mask


@dataclass
class ScenarioConfig:
    """One simulation scenario: two-sample signals, run by ``run_scenario``."""

    n_samples: int
    n_permutations: int
    replicates: int
    seed: int
    alpha: float = 0.05
    signal_amplitude: float = 0.0
    noise_bandwidth: float = 0.3
    noise_sd: float = 1.0
    scenario_id: str = ""

    def __post_init__(self):
        if self.n_samples % 2 != 0 or self.n_samples < 4:
            raise ValueError("n_samples must be even and at least 4")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if self.noise_bandwidth <= 0 or self.noise_sd <= 0:
            raise ValueError("noise scale parameters must be positive")


def run_scenario(cfg: ScenarioConfig, domain: ProductDomain, truth: np.ndarray,
                 distances: DistanceRows, return_masks: bool = False):
    """Run one scenario: simulate, test, threshold the adjusted p-values.

    Half the observations carry the base signal on ``truth``, the grid mask
    where the null is false (none: a global null), half are pure noise,
    drawn on the domain's one mesh from its all-pairs ``distances``;
    inference is the two-sample pipeline with raw label permutations (exact
    under the exchangeable null). A scenario whose samples, replicates or
    permutations could not be held is refused before the noise is set up.
    Returns ``ErrorRates``, or ``(ErrorRates, masks)`` with the (replicates,
    n) rejection masks when ``return_masks`` is set.
    """
    _check_one_mesh(domain)
    truth = np.asarray(truth, dtype=bool)
    if truth.shape != (domain.size,):
        raise ValueError(f"truth mask of shape {truth.shape} does not match the domain")
    if len(distances) != domain.size:
        raise ValueError(f"distances of {len(distances)} rows do not match the domain")

    m, limit = domain.size, memory_limit()
    check_memory(f"n_samples = {cfg.n_samples} on {m} points", cfg.n_samples * SAMPLE_BYTES * m,
                 limit)
    check_memory(f"replicates = {cfg.replicates} on {m} points",
                 cfg.replicates * (REPLICATE_BYTES * m + SEED_BYTES), limit)
    check_permutations(cfg.n_permutations, cfg.n_samples)
    sampler = GaussianFieldSampler(distances, cfg.noise_bandwidth, cfg.noise_sd)
    family = enumerate_family(domain)

    groups = np.repeat([0, 1], cfg.n_samples // 2)
    base = np.where(truth, cfg.signal_amplitude, 0.0)

    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    masks = np.zeros((cfg.replicates, domain.size), dtype=bool)
    for r, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        Y = sampler.sample(rng, cfg.n_samples)
        Y[groups == 1] += base
        seed = int(rng.integers(2 ** 63))
        perms = generate_permutations(cfg.n_permutations, seed, cfg.n_samples)
        result = run_inference(StatKernel(Y, "t_two_sample_sq", groups), family, perms)
        masks[r] = result.p.adjusted <= cfg.alpha

    rates = compute_error_rates(masks, truth, domain.grid_weights())
    return (rates, masks) if return_masks else rates
