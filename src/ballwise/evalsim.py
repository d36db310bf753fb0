"""Monte Carlo evaluation: two-sample signals with spatially correlated
Gaussian noise on a one-mesh domain, scenario sweeps over sample size and
radius cap, and the resulting error-rate metrics.

Error rates are measure-weighted: denominators use the domain's quadrature
weights, so rates approximate area fractions rather than point counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import TILE_VALUES, ProductDomain, enumerate_family
from .glm import StatKernel
from .mesh import DistanceRows, TriangulatedManifold, check_memory, memory_limit
from .permute import check_permutations, generate_permutations, run_inference

__all__ = [
    "ScenarioConfig",
    "ErrorRates",
    "GaussianFieldSampler",
    "compute_error_rates",
    "run_scenario",
    "multi_patch_mask",
]

# Bytes per domain point for each sample (the noise draw and its field) and
# replicate (its rejection mask), and per replicate for its seed:
# run_scenario's tracemalloc peak grows by 16.2, 1.0 and 367-376 at m = 642.
SAMPLE_BYTES = 17
REPLICATE_BYTES = 1
SEED_BYTES = 400

# Bytes per (point, neighbour within 3h) slot of the noise kernel: the rows
# cut at 3h (12, when the rows given reach past it), the kernel's float64
# weight and one float64 temporary while it is built; and per value of a
# sampling tile, with room to spare. At orders 10 and 25 the tracemalloc peak
# of GaussianFieldSampler reads 28.0-28.5 bytes a slot from rows searched to
# 1.5 (16.0-16.5 from rows searched to 3h = 0.9), and that of a sample, past
# its draws, 3.0 tiles of 8-byte values.
NOISE_SLOT_BYTES = 28
NOISE_TILE_BYTES = 32


def _check_one_mesh(domain: ProductDomain) -> None:
    """Refuse a domain that is not one mesh component: the noise has no
    product form."""
    if len(domain.components) != 1 or domain.components[0].kind != "mesh":
        raise ValueError("the noise sampler needs a domain of exactly one mesh component")


class GaussianFieldSampler:
    """Zero-mean Gaussian field on mesh vertices, a process convolution
    (Higdon 2002): f = sd * A z for independent standard normal z.

    Row i of A holds sqrt(w_j) exp(-(d_ij / h)^2) for the vertices j with
    d_ij < 3h and 0 for the others, scaled to unit norm, where w are the
    mesh's quadrature weights and h the bandwidth. The field's covariance
    sd^2 A A' is exactly positive semidefinite with diagonal sd^2, and close
    to the squared-exponential sd^2 exp(-d^2 / (2 h^2)) where the mesh is
    nearly flat over 3h. Vertices that no edge path joins are uncorrelated.

    Only the entries of ``distances`` below 3h are read, a prefix of each
    sorted row, so rows searched to any bound of at least 3h give the same
    bits as all pairs; rows whose ``bound`` is below 3h are refused. A is
    applied a tile of rows at a time by numpy gathers and sums, with no BLAS
    call, so the field does not depend on the BLAS thread count.
    """

    def __init__(self, distances: DistanceRows, weights, bandwidth: float, sd: float):
        if not (bandwidth > 0 and sd > 0):
            raise ValueError("bandwidth and sd must be positive")
        if distances.bound < 3 * bandwidth:
            raise ValueError(f"the distances hold every entry only below {distances.bound:g}, "
                             f"short of 3 * bandwidth = {3 * bandwidth:g}")
        rows = distances.below(3 * bandwidth)
        n, L = rows.values.shape
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"{w.size} weights do not match the {n} rows of the distances")
        check_memory(f"noise kernel of {n} points by {L} neighbours",
                     NOISE_SLOT_BYTES * n * L + NOISE_TILE_BYTES * max(TILE_VALUES, L),
                     memory_limit(),
                     "; use a smaller noise_bandwidth")
        # (d / h)^2, not d^2 / h^2: no power of the bandwidth alone leaves
        # float range; the padding at inf gets exp(-inf) = 0
        kernel = rows.values / bandwidth
        np.square(kernel, out=kernel)
        np.exp(np.negative(kernel, out=kernel), out=kernel)
        kernel *= np.append(np.sqrt(w), 0.0)[rows.indices]
        kernel /= np.sqrt(np.einsum("ij,ij->i", kernel, kernel))[:, None]
        self.kernel, self.indices, self.sd = kernel, rows.indices, float(sd)

    def sample(self, rng: np.random.Generator, n_draws: int = 1) -> np.ndarray:
        """(n_draws, n_vertices) independent field realizations.

        Each tile gathers the draws' z at the rows' neighbours, as many rows
        as fit ``TILE_VALUES`` values (at least one), then as many draws as
        fit beside them, and sums each row's weighted neighbours on its own.
        """
        n, L = self.kernel.shape
        z = rng.standard_normal((n_draws, n))
        # a zero at index n, the rows' padding
        padded = np.concatenate([z, np.zeros((n_draws, 1))], axis=1)
        rows = min(n, max(TILE_VALUES // L, 1))
        draws = max(TILE_VALUES // (rows * L), 1)
        for top in range(0, n, rows):
            indices, kernel = self.indices[top:top + rows], self.kernel[top:top + rows]
            for first in range(0, n_draws, draws):
                # take, not fancy indexing, for a C-order tile: each row's
                # neighbours are then summed on their own, whatever the tile
                tile = np.take(padded[first:first + draws], indices, axis=1)
                tile *= kernel
                z[first:first + draws, top:top + rows] = tile.sum(axis=-1)
        z *= self.sd
        return z


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
        if not (self.noise_bandwidth > 0 and self.noise_sd > 0):
            raise ValueError("noise scale parameters must be positive")


def run_scenario(cfg: ScenarioConfig, domain: ProductDomain, truth: np.ndarray,
                 distances: DistanceRows, return_masks: bool = False):
    """Run one scenario: simulate, test, threshold the adjusted p-values.

    Half the observations carry the base signal on ``truth``, the grid mask
    where the null is false (none: a global null), half are pure noise. The
    noise is drawn on the domain's one mesh by ``GaussianFieldSampler``, from
    the weights of the domain's component and from ``distances``, the mesh's
    rows searched out to at least 3 * ``noise_bandwidth`` (or all pairs).
    Inference is the two-sample pipeline with raw label permutations (exact
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
    sampler = GaussianFieldSampler(distances, domain.components[0].weights,
                                   cfg.noise_bandwidth, cfg.noise_sd)
    family = enumerate_family(domain, cfg.n_samples)

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
