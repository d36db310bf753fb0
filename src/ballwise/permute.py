"""Permutation inference: pointwise, ball-wise and sup-adjusted p-values.

One permutation of the signals' rows (``glm.StatKernel``) is shared across
the whole domain within a replicate, so the joint null distribution of the
ball-wise integrated statistics is preserved. p-values use the (1 +
#{permuted >= observed}) / (B + 1) convention, where a permuted statistic
within a relative 100 eps of the observed one counts as a tie (``null >= obs
- |100 eps obs|``, the rule of scipy's ``permutation_test``): ties count as
extreme, so statistics that are equal in exact arithmetic but were summed in
another order are never lost, and p is never zero. The adjusted value at a
grid point is the maximum ball-wise p over all family balls containing the
point. Every point has a singleton ball unless another point lies at distance
0 from it, so adjusted >= pointwise holds by construction at every point but
such coincident ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import AdjustmentFamily
from .glm import StatKernel
from .mesh import check_memory, memory_limit

__all__ = [
    "RNG_ALGORITHM",
    "MAX_PERMUTATIONS",
    "PValueFields",
    "InferenceResult",
    "check_permutations",
    "generate_permutations",
    "run_inference",
]

# numpy's default bit generator; recorded in run manifests for reproducibility
RNG_ALGORITHM = "PCG64"

# A permuted statistic at least (1 - TIE_RTOL) times the observed one counts
# as a tie.
TIE_RTOL = 100 * np.finfo(float).eps

# B + 1 must fit the int32 count grid of ``run_inference``
MAX_PERMUTATIONS = 2**31 - 2


def check_permutations(n_permutations: int, n_obs: int) -> None:
    """Refuse B permutations of N observations that could not be counted or
    held: B past ``MAX_PERMUTATIONS``, or a (B, N) int64 array past
    ``memory_limit()``."""
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    if n_permutations > MAX_PERMUTATIONS:
        raise ValueError(f"permutations must be at most {MAX_PERMUTATIONS}, the most "
                         f"that the int32 counts hold, got {n_permutations}")
    check_memory(f"permutations = {n_permutations} of {n_obs} observations",
                 8 * n_permutations * n_obs, memory_limit())


def generate_permutations(n_permutations: int, seed: int, n_obs: int) -> np.ndarray:
    """The (B, N) array of B random permutations of 0..N-1, after
    ``check_permutations``: one draw from the seed's PCG64 stream that leaves
    the rows and the stream as B calls of ``rng.permutation(N)`` would."""
    check_permutations(n_permutations, n_obs)
    perms = np.empty((n_permutations, n_obs), dtype=np.int64)
    identity = np.broadcast_to(np.arange(n_obs, dtype=np.int64), perms.shape)
    return np.random.default_rng(seed).permuted(identity, axis=1, out=perms)


@dataclass
class PValueFields:
    """Pointwise, ball-wise and sup-adjusted permutation p-values."""

    pointwise: np.ndarray       # (m,)
    ballwise: np.ndarray        # (n_balls,)
    adjusted: np.ndarray        # (m,)
    n_permutations: int


@dataclass
class InferenceResult:
    """Observed statistics, the resulting p-value fields and the
    permutations per chunk that the loop ran."""

    observed_field: np.ndarray
    observed_ball_stats: np.ndarray
    p: PValueFields
    permutation_chunk: int


def _tie_floor(observed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The least permuted statistic that counts as at least ``observed``."""
    tolerance = np.multiply(TIE_RTOL, observed)
    np.abs(tolerance, out=tolerance)
    return np.subtract(observed, tolerance, out=out)


def run_inference(
    kernel: StatKernel, family: AdjustmentFamily, perms: np.ndarray
) -> InferenceResult:
    """Full pipeline: permutation null, p-values, sup adjustment.

    ``kernel`` gives the fields of the signals permuted by each row of the
    (B, N) ``perms`` (``generate_permutations``), the observed field being
    its identity row. The shape is checked (``check_permutations``), then
    that each row reorders 0..N-1, before any field is computed.
    Permutations are processed in chunks of ``family.chunk_size()``
    (``domain.CHUNK_PERMUTATIONS``, fewer only when the family's
    ``memory_bound`` at that chunk would pass ``memory_limit()``); no p-value
    depends on the chunk. A chunk's fields come from one ``StatKernel``
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
    counts and one tile of at most ``domain.TILE_VALUES`` values, never a
    permuted statistic per ball.
    """
    N, perms = kernel.n_obs, np.asarray(perms)
    if perms.ndim != 2 or perms.shape[1] != N:
        raise ValueError("explicit permutations have the wrong length")
    B = len(perms)
    check_permutations(B, N)
    # the kernel inverts each row, so each must be a permutation; a few rows
    # at a time, so the check never copies the whole array
    if not all((np.sort(perms[s:s + 4096], axis=1) == np.arange(N)).all()
               for s in range(0, B, 4096)):
        raise ValueError("explicit permutations must each reorder 0..N-1")
    T_obs = kernel.fields(np.arange(N)[None, :])[0]
    floor_slots = family.integrated_slots(T_obs)
    ball_obs = family.ball_values(floor_slots)
    point_floor = _tie_floor(T_obs)
    # one position at a time, so the tolerance is never a whole grid
    for j in range(len(floor_slots)):
        _tie_floor(floor_slots[j], out=floor_slots[j])

    chunk_size = family.chunk_size()
    point_counts = np.zeros(T_obs.shape[0], dtype=np.int64)
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
    return InferenceResult(T_obs, ball_obs, fields_out, chunk_size)
