"""Permutation inference: pointwise, ball-wise and sup-adjusted p-values.

One permutation is shared across the whole domain within a replicate, so the
joint null distribution of the ball-wise integrated statistics is preserved.
Permuting the rows of the signals (or of the Freedman-Lane residuals) is done
by permuting the design by the inverse permutation, with the signals fixed
(``glm.StatKernel``), so two permutations that make the same grouping give
bitwise equal statistics and the observed field is the kernel's identity row.
p-values use the (1 + #{permuted >= observed}) / (B + 1) convention, where a
permuted statistic within a relative 100 eps of the observed one counts as a
tie (``null >= obs - |100 eps obs|``, the rule of scipy's
``permutation_test``): ties count as extreme, so statistics that are equal in
exact arithmetic but were summed in another order are never lost, and p is
never zero. The adjusted value at a grid point is the maximum ball-wise p over
all family balls containing the point; since the family always contains every
singleton, adjusted >= pointwise holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import AdjustmentFamily
from .glm import DesignSpec, HypothesisSpec, StatKernel

__all__ = [
    "RNG_ALGORITHM",
    "PermutationPlan",
    "PValueFields",
    "InferenceResult",
    "generate_permutations",
    "adjusted_from_ballwise",
    "run_inference",
]

# numpy's default bit generator; recorded in run manifests for reproducibility
RNG_ALGORITHM = "PCG64"

# Working memory of one chunk of permutations: the tile buffers of ball
# counting (the family's tile_bytes, the same for every chunk) and, per
# permutation, the family's column_bytes or the stat kernel's temporaries (at
# most five fields), whichever is more. Larger domains get smaller chunks.
CHUNK_BYTES = 64 * 2**20

# The stat kernel's temporaries per permutation, in fields.
KERNEL_FIELDS = 5

# Permutations per chunk, fewer when CHUNK_BYTES binds.
CHUNK_PERMUTATIONS = 32

SCHEMES = ("freedman_lane", "raw_label_permutation")

# A permuted statistic at least (1 - TIE_RTOL) times the observed one counts
# as a tie.
TIE_RTOL = 100 * np.finfo(float).eps


@dataclass
class PermutationPlan:
    """How to generate the permutation null.

    ``null_design`` is the reduced design matrix under the null for the
    Freedman-Lane scheme (defaults to intercept-only). ``permutations`` may
    carry explicit row permutations (B x N), overriding random generation;
    used for exhaustive enumeration on small problems.
    """

    n_permutations: int
    seed: int = 0
    scheme: str = "freedman_lane"
    null_design: np.ndarray | None = None
    permutations: np.ndarray | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.permutations is not None:
            self.permutations = np.asarray(self.permutations, dtype=np.int64)
            self.n_permutations = self.permutations.shape[0]
        if self.n_permutations < 1:
            raise ValueError("need at least one permutation")
        if self.null_design is not None:
            self.null_design = np.asarray(self.null_design, dtype=float)


def generate_permutations(plan: PermutationPlan, n_obs: int) -> np.ndarray:
    """The (B, N) permutation array for a plan, deterministic in the seed."""
    if plan.permutations is not None:
        perms = plan.permutations
        if perms.shape[1] != n_obs:
            raise ValueError("explicit permutations have the wrong length")
        # the engine inverts each row, so each must be a permutation
        if not (np.sort(perms, axis=1) == np.arange(n_obs)).all():
            raise ValueError("explicit permutations must each reorder 0..N-1")
        return perms
    rng = np.random.default_rng(plan.seed)
    return np.array(
        [rng.permutation(n_obs) for _ in range(plan.n_permutations)], dtype=np.int64
    )


@dataclass
class PValueFields:
    """Pointwise, ball-wise and sup-adjusted permutation p-values."""

    pointwise: np.ndarray       # (m,)
    ballwise: np.ndarray        # (n_balls,)
    adjusted: np.ndarray        # (m,)
    n_permutations: int

    def tobytes(self) -> bytes:
        """Canonical byte serialization (reproducibility checks)."""
        return b"".join(
            [
                np.int64(self.n_permutations).tobytes(),
                np.ascontiguousarray(self.pointwise, dtype="<f8").tobytes(),
                np.ascontiguousarray(self.ballwise, dtype="<f8").tobytes(),
                np.ascontiguousarray(self.adjusted, dtype="<f8").tobytes(),
            ]
        )


def adjusted_from_ballwise(
    ballwise_p: np.ndarray, family: AdjustmentFamily, ball_mask: np.ndarray | None = None
) -> np.ndarray:
    """Max of the ball-wise p-values over the balls covering each grid point.

    ``ball_mask`` restricts the sup to a sub-family (cap re-adjustment): the
    p-values of the other balls are zeroed, and p-values are never below 0.
    Grid points not covered by any selected ball get 0; with singletons in
    the family every point is covered. The p-values in family order go onto
    the slot grid (``to_slots``) for the covering max (``cover``);
    ``run_inference`` forms them there and covers them in place.
    """
    p = np.asarray(ballwise_p, dtype=float)
    if ball_mask is not None:
        p = np.where(np.asarray(ball_mask, dtype=bool), p, 0.0)
    return family.cover(family.to_slots(p))


def _p_from_counts(counts: np.ndarray, n_permutations: int) -> np.ndarray:
    return (1.0 + counts) / (n_permutations + 1.0)


@dataclass
class InferenceResult:
    """Observed statistics and the resulting p-value fields."""

    observed_field: np.ndarray
    observed_ball_stats: np.ndarray
    p: PValueFields


def _tie_floor(observed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The least permuted statistic that counts as at least ``observed``."""
    tolerance = np.multiply(TIE_RTOL, observed)
    np.abs(tolerance, out=tolerance)
    return np.subtract(observed, tolerance, out=out)


def run_inference(
    signals: np.ndarray,
    design: DesignSpec,
    hypothesis: HypothesisSpec,
    family: AdjustmentFamily,
    plan: PermutationPlan,
) -> InferenceResult:
    """Full pipeline: permutation null, p-values, sup adjustment.

    Permutations are processed in chunks of at most ``CHUNK_PERMUTATIONS``,
    fewer when a chunk would need more than ``CHUNK_BYTES``. A chunk's fields
    come from one ``StatKernel`` call, and ``count_exceedances`` adds them to
    the counts one integration tile at a time. Everything per ball lies on
    the slot grid of the family's last integrated component
    (``integrated_slots``), as each tile's running sums do: the observed
    sums, turned into tie floors in place one slot position at a time, the
    int32 counts, then the p-values, which ``cover`` turns into the adjusted
    field in place. The observed sums and the p-values are each read in ball
    order once (``ball_values``); nothing goes back from ball order to the
    grid. The loop holds the floors, the counts and one tile of at most
    ``TILE_MAX_VALUES`` values, never a permuted statistic per ball. The
    Freedman-Lane scheme permutes the reduced-model residual rows and adds
    back the reduced-model fits; the raw scheme permutes observation rows.
    """
    Y = np.asarray(signals, dtype=float)
    perms = generate_permutations(plan, Y.shape[0])
    B = perms.shape[0]
    reduced = None
    if plan.scheme == "freedman_lane":
        reduced = plan.null_design
        if reduced is None:
            reduced = np.ones((Y.shape[0], 1))
    kernel = StatKernel(Y, design, hypothesis, reduced)
    T_obs = kernel.fields(np.arange(Y.shape[0])[None, :])[0]
    floor_slots = family.integrated_slots(T_obs)
    ball_obs = family.ball_values(floor_slots)
    point_floor = _tie_floor(T_obs)
    # one position at a time, so the tolerance is never a whole grid
    for j in range(len(floor_slots)):
        _tie_floor(floor_slots[j], out=floor_slots[j])

    per_field = max(family.column_bytes, KERNEL_FIELDS * 8 * T_obs.shape[0])
    chunk_size = (CHUNK_BYTES - family.tile_bytes) // per_field
    chunk_size = max(1, min(CHUNK_PERMUTATIONS, chunk_size))
    point_counts = np.zeros(T_obs.shape[0], dtype=np.int64)
    # B < 2**31: the (B, N) permutations could not be held long before that
    count_slots = np.zeros(floor_slots.shape, dtype=np.int32)
    for start in range(0, B, chunk_size):
        fields = kernel.fields(perms[start:start + chunk_size])
        point_counts += (fields >= point_floor).sum(axis=0)
        family.count_exceedances(fields, floor_slots, count_slots)
    del floor_slots

    p_point = _p_from_counts(point_counts, B)
    p_slots = _p_from_counts(count_slots, B)
    del count_slots
    p_ball = family.ball_values(p_slots)
    fields_out = PValueFields(p_point, p_ball, family.cover(p_slots), B)
    return InferenceResult(T_obs, ball_obs, fields_out)
