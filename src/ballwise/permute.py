"""Permutation inference: pointwise, ball-wise and sup-adjusted p-values.

One permutation is shared across the whole domain within a replicate, so the
joint null distribution of the ball-wise integrated statistics is preserved.
The rows of the signals are permuted, which is done by permuting the design
by the inverse permutation, with the signals fixed (``glm.StatKernel``), so
two permutations that make the same grouping give bitwise equal statistics
and the observed field is the kernel's identity row. Under the
intercept-only null model this is also the Freedman-Lane scheme, whose fits
plus permuted residuals are the permuted signals.
p-values use the (1 + #{permuted >= observed}) / (B + 1) convention, where a
permuted statistic within a relative 100 eps of the observed one counts as a
tie (``null >= obs - |100 eps obs|``, the rule of scipy's
``permutation_test``): ties count as extreme, so statistics that are equal in
exact arithmetic but were summed in another order are never lost, and p is
never zero. The adjusted value at a grid point is the maximum ball-wise p over
all family balls containing the point. Every point has a singleton ball unless
another point lies at distance 0 from it, so adjusted >= pointwise holds by
construction at every point but such coincident ones.
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
    "run_inference",
]

# numpy's default bit generator; recorded in run manifests for reproducibility
RNG_ALGORITHM = "PCG64"

# A permuted statistic at least (1 - TIE_RTOL) times the observed one counts
# as a tie.
TIE_RTOL = 100 * np.finfo(float).eps


@dataclass
class PermutationPlan:
    """How to generate the permutation null.

    ``permutations`` may carry explicit row permutations (B x N), overriding
    random generation; used for exhaustive enumeration on small problems.
    """

    n_permutations: int
    seed: int = 0
    permutations: np.ndarray | None = None

    def __post_init__(self):
        if self.permutations is not None:
            self.permutations = np.asarray(self.permutations, dtype=np.int64)
            self.n_permutations = self.permutations.shape[0]
        if self.n_permutations < 1:
            raise ValueError("need at least one permutation")


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

    Permutations are processed in chunks of ``family.chunk_size()``
    (``domain.CHUNK_PERMUTATIONS``, fewer when a chunk would need more than
    ``domain.CHUNK_BYTES``). A chunk's fields come from one ``StatKernel``
    call, and ``count_exceedances`` adds them to the counts one integration
    tile at a time. Everything per ball lies on the slot grid of the family's
    last integrated component (``integrated_slots``), as each tile's running
    sums do: the observed sums, turned into tie floors in place one slot
    position at a time, then the int32 counts. A p-value (1 + k) / (B + 1)
    rises with its count k, so the counts plus one, in place, are read in
    ball order once (``ball_values``) and covered in place (``cover``), and
    only then divided by B + 1: the same bits as covering the p-values, as
    c + 1 converts to float exactly and the division is monotone. Nothing
    goes back from ball order to the grid. The loop holds the floors, the
    counts and one tile of at most ``TILE_MAX_VALUES`` values, never a
    permuted statistic per ball.
    """
    Y = np.asarray(signals, dtype=float)
    perms = generate_permutations(plan, Y.shape[0])
    B = perms.shape[0]
    kernel = StatKernel(Y, design, hypothesis)
    T_obs = kernel.fields(np.arange(Y.shape[0])[None, :])[0]
    floor_slots = family.integrated_slots(T_obs)
    ball_obs = family.ball_values(floor_slots)
    point_floor = _tie_floor(T_obs)
    # one position at a time, so the tolerance is never a whole grid
    for j in range(len(floor_slots)):
        _tie_floor(floor_slots[j], out=floor_slots[j])

    chunk_size = family.chunk_size()
    point_counts = np.zeros(T_obs.shape[0], dtype=np.int64)
    # B + 1 < 2**31: the (B, N) permutations could not be held long before that
    count_slots = np.zeros(floor_slots.shape, dtype=np.int32)
    for start in range(0, B, chunk_size):
        fields = kernel.fields(perms[start:start + chunk_size])
        point_counts += (fields >= point_floor).sum(axis=0)
        family.count_exceedances(fields, floor_slots, count_slots)
    del floor_slots

    count_slots += 1
    p_ball = family.ball_values(count_slots) / (B + 1.0)
    p_adjusted = family.cover(count_slots) / (B + 1.0)
    fields_out = PValueFields((point_counts + 1) / (B + 1.0), p_ball, p_adjusted, B)
    return InferenceResult(T_obs, ball_obs, fields_out)
