"""Materialised reference implementations that the tests compare against.

The library keeps one inference engine (``run_inference``) and describes the
adjustment family only by its per-component balls. The helpers here are the
slow, direct versions: one product ball at a time, one permutation at a time,
the whole permutation null held in memory. Product ball k of a family is
``np.unravel_index(k, family.shape)`` over the per-component ball lists.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from ballwise.glm import stat_field
from ballwise.permute import PValueFields, adjusted_from_ballwise, generate_permutations


# --- one product ball ----------------------------------------------------------

def product_ball(family, k: int):
    """The per-component balls of product ball k."""
    idx = np.unravel_index(k, family.shape)
    return tuple(balls[i] for balls, i in zip(family.component_balls, idx))


def support_indices(family, k: int) -> np.ndarray:
    """Flat grid indices of ball k's support, ascending."""
    grids = np.meshgrid(*(b.indices for b in product_ball(family, k)), indexing="ij")
    return np.ravel_multi_index(tuple(g.ravel() for g in grids), family.domain.shape)


def support_weights(family, k: int) -> np.ndarray:
    """Product weights aligned with :func:`support_indices`."""
    comps = family.domain.components
    balls = product_ball(family, k)
    w = comps[0].weights[balls[0].indices]
    for comp, b in zip(comps[1:], balls[1:]):
        w = np.multiply.outer(w, comp.weights[b.indices])
    return w.ravel()


def ball_weight(family, k: int) -> float:
    """Measure of ball k: the product of its per-component support weights."""
    return float(
        np.prod(
            [
                comp.weights[b.indices].sum()
                for comp, b in zip(family.domain.components, product_ball(family, k))
            ]
        )
    )


def integrated_stat(stat_values: np.ndarray, family, k: int) -> float:
    """Weighted sum of a stat field over ball k's support."""
    T = np.asarray(stat_values, dtype=float).ravel()
    return float(support_weights(family, k) @ T[support_indices(family, k)])


def admissible_mask(family, caps) -> np.ndarray:
    """Per-ball loop: every component's inner radius strictly below its cap."""
    return np.array(
        [
            all(b.inner_radius < cap for b, cap in zip(combo, caps))
            for combo in itertools.product(*family.component_balls)
        ]
    )


def balls_csv(family, result) -> str:
    """Row-by-row ``balls.csv`` writer, one ``csv.writer`` row per product ball."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["ball_id"]
    for l in range(len(family.component_balls)):
        header += [f"center_{l}", f"radius_{l}", f"inner_radius_{l}"]
    header += ["T_ball_obs", "p_ball"]
    writer.writerow(header)
    for k, combo in enumerate(itertools.product(*family.component_balls)):
        row = [k]
        for b in combo:
            row += [b.center, f"{b.radius:.17g}", f"{b.inner_radius:.17g}"]
        row += [f"{result.observed_ball_stats[k]:.17g}", f"{result.p.ballwise[k]:.17g}"]
        writer.writerow(row)
    return buf.getvalue()


# --- the materialised permutation null -----------------------------------------

def reduced_fit(Y: np.ndarray, null_design):
    """Fitted values and residuals of the null (reduced) model, columnwise."""
    if null_design is None:
        fits = np.broadcast_to(Y.mean(axis=0), Y.shape)
        return np.array(fits), Y - fits
    X0 = null_design[:, None] if null_design.ndim == 1 else null_design
    if np.linalg.matrix_rank(X0) < X0.shape[1]:
        raise ValueError("reduced design is rank deficient")
    beta, *_ = np.linalg.lstsq(X0, Y, rcond=None)
    fits = X0 @ beta
    return fits, Y - fits


def permute_once(signals: np.ndarray, plan, perm: np.ndarray) -> np.ndarray:
    """One permuted copy of the signal matrix.

    Freedman-Lane permutes the reduced-model residual rows and adds back the
    reduced-model fits; the raw scheme permutes observation rows directly.
    """
    Y = np.asarray(signals, dtype=float)
    perm = np.asarray(perm, dtype=np.int64)
    if plan.scheme == "raw_label_permutation":
        return Y[perm]
    fits, resid = reduced_fit(Y, plan.null_design)
    return fits + resid[perm]


@dataclass
class NullDistribution:
    """Observed and permuted statistics, pointwise and per ball."""

    observed_field: np.ndarray          # (m,)
    observed_ball_stats: np.ndarray     # (n_balls,)
    permuted_fields: np.ndarray         # (B, m)
    permuted_ball_stats: np.ndarray     # (B, n_balls)

    @property
    def n_permutations(self) -> int:
        return self.permuted_fields.shape[0]


def null_distribution(signals, design, hypothesis, family, plan) -> NullDistribution:
    """The full permutation null, every permuted field and ball statistic."""
    Y = np.asarray(signals, dtype=float)
    perms = generate_permutations(plan, Y.shape[0])
    T_obs = stat_field(Y, design, hypothesis)
    ball_obs = family.integrated_stats(T_obs)
    T_perm = np.stack(
        [stat_field(permute_once(Y, plan, p), design, hypothesis) for p in perms]
    )
    ball_perm = family.integrated_stats(T_perm).T
    return NullDistribution(T_obs, ball_obs, T_perm, ball_perm)


def pvalues(nd: NullDistribution, family):
    """p-value fields from a materialised permutation null."""
    B = nd.n_permutations
    point_counts = (nd.permuted_fields >= nd.observed_field).sum(axis=0)
    ball_counts = (nd.permuted_ball_stats >= nd.observed_ball_stats).sum(axis=0)
    p_point = (1.0 + point_counts) / (B + 1.0)
    p_ball = (1.0 + ball_counts) / (B + 1.0)
    return PValueFields(p_point, p_ball, adjusted_from_ballwise(p_ball, family), B)
