"""Materialised reference implementations that the tests compare against.

The library keeps one inference engine (``run_inference``) and describes the
adjustment family only by its per-component prefix operators. The helpers
here are the slow, direct versions: one product ball at a time, one center
at a time, one permutation at a time, the whole permutation null held in
memory, the family as one sparse weight matrix, each statistic from two
passes over an explicit signal column. Product ball k of a family
is ``np.unravel_index(k, family.shape)`` over the per-component ball lists.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, kron
from scipy.sparse.csgraph import dijkstra

from ballwise.domain import mesh_component
from ballwise.glm import StatKernel
from ballwise.mesh import (
    _ICO_FACES,
    _ICO_VERTICES,
    DEGENERACY_RTOL,
    DistanceRows,
    TriangulatedManifold,
    build_icosphere,
)
from ballwise.permute import PValueFields


# --- triangle areas --------------------------------------------------------------

def heron_area(l1: float, l2: float, l3: float) -> float:
    """Area of the flat triangle with side lengths ``l1, l2, l3`` by Heron's
    formula, one triangle at a time: 0 when the triangle inequality is
    violated within ``DEGENERACY_RTOL`` of the perimeter."""
    sides = sorted((float(l1), float(l2), float(l3)))
    perimeter = sides[0] + sides[1] + sides[2]
    violation = sides[2] - (sides[0] + sides[1])
    assert sides[0] >= 0 and violation <= DEGENERACY_RTOL * perimeter
    if violation > 0:
        return 0.0
    s = 0.5 * perimeter
    rad = s * (s - sides[0]) * (s - sides[1]) * (s - sides[2])
    return float(np.sqrt(max(rad, 0.0)))


# --- icosphere -------------------------------------------------------------------

def icosphere_reference(order: int, radius: float = 1.0) -> TriangulatedManifold:
    """The icosphere built one grid point at a time: each point of each face's
    barycentric grid is looked up by a key naming the corner, edge point or
    face point it is, and a new key gets the next vertex number and its point
    scaled to ``radius`` by its own ``np.linalg.norm``."""
    n = int(order)
    coords: list[np.ndarray] = []
    index: dict[tuple, int] = {}

    def vertex_at(key, point) -> int:
        if key not in index:
            index[key] = len(coords)
            coords.append(point / np.linalg.norm(point) * radius)
        return index[key]

    def grid_key(face_id, corners, i, j):
        a, b, c = corners
        if i == 0 and j == 0:
            return ("v", a)
        if i == n and j == 0:
            return ("v", b)
        if j == n and i == 0:
            return ("v", c)
        if j == 0:  # edge a-b, parameter i from a
            return ("e", a, b, i) if a < b else ("e", b, a, n - i)
        if i == 0:  # edge a-c, parameter j from a
            return ("e", a, c, j) if a < c else ("e", c, a, n - j)
        if i + j == n:  # edge b-c, parameter j from b
            return ("e", b, c, j) if b < c else ("e", c, b, n - j)
        return ("f", face_id, i, j)

    faces = []
    for face_id, (a, b, c) in enumerate(_ICO_FACES):
        pa, pb, pc = _ICO_VERTICES[a], _ICO_VERTICES[b], _ICO_VERTICES[c]
        local = {}
        for i in range(n + 1):
            for j in range(n + 1 - i):
                point = ((n - i - j) * pa + i * pb + j * pc) / n
                local[(i, j)] = vertex_at(grid_key(face_id, (a, b, c), i, j), point)
        for i in range(n):
            for j in range(n - i):
                faces.append([local[(i, j)], local[(i + 1, j)], local[(i, j + 1)]])
                if i + j < n - 1:
                    faces.append(
                        [local[(i + 1, j)], local[(i + 1, j + 1)], local[(i, j + 1)]]
                    )
    return TriangulatedManifold(np.array(coords), np.array(faces, dtype=np.int64))


def cut_mesh(m: TriangulatedManifold, keep: np.ndarray) -> TriangulatedManifold:
    """The part of ``m`` made of the triangles whose three vertices are all
    in ``keep`` (a vertex mask), its vertices renumbered in their order in
    ``m``; a kept vertex in no kept triangle is dropped."""
    triangles = m.triangles[keep[m.triangles].all(axis=1)]
    used = np.unique(triangles)
    number = np.full(m.n_vertices, -1)
    number[used] = np.arange(len(used))
    return TriangulatedManifold(m.vertices[used], number[triangles])


def notched_band(order: int = 6) -> TriangulatedManifold:
    """An icosphere cut by a vertex predicate: the band z > -0.3 less the
    notch |longitude| < 0.6, z < 0.5. A non-convex domain with a boundary;
    at order 6 it has 203 vertices and an area of 6.187."""
    m = build_icosphere(order)
    x, y, z = m.vertices.T
    notch = (np.abs(np.arctan2(y, x)) < 0.6) & (z < 0.5)
    return cut_mesh(m, (z > -0.3) & ~notch)


def boundary_vertices(m: TriangulatedManifold) -> np.ndarray:
    """The vertices of the edges that lie in one triangle only, ascending."""
    t = m.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]]), axis=1)
    unique, count = np.unique(edges, axis=0, return_counts=True)
    return np.unique(unique[count == 1])


def off_text_reference(m) -> str:
    """OFF text with one f-string per vertex and per face."""
    lines = ["OFF", f"{m.n_vertices} {len(m.triangles)} 0"]
    lines += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in m.vertices]
    lines += [f"3 {t[0]} {t[1]} {t[2]}" for t in m.triangles]
    return "\n".join(lines) + "\n"


# --- ground-truth distances ------------------------------------------------------

def adjacency(m) -> csr_matrix:
    """Sparse symmetric edge-weight matrix of a mesh; zero-length edges are
    kept as explicit entries, which csgraph treats as edges."""
    i, j = m.edges[:, 0], m.edges[:, 1]
    lengths = m.edge_lengths
    n = m.n_vertices
    return coo_matrix(
        (np.concatenate([lengths, lengths]),
         (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    ).tocsr()


def dense_dijkstra(m) -> np.ndarray:
    """All-pairs distances of a mesh from one unbounded dense Dijkstra."""
    d = dijkstra(adjacency(m), directed=False)
    np.fill_diagonal(d, 0.0)
    return d


def mesh_grid(m, radius_cap=math.inf):
    """``mesh_component(m, radius_cap)`` that also carries, as ``truth``, the
    mesh's ``dense_dijkstra`` distances for the oracles below."""
    truth = dense_dijkstra(m)
    g = mesh_component(m, radius_cap=radius_cap)
    g.truth = truth
    return g


def distances(g) -> np.ndarray:
    """All-pairs distances of a component, never read from its in-cap rows:
    a mesh's ``truth`` (see ``mesh_grid``), or the closed form of a circle
    or an interval."""
    if g.kind == "mesh":
        return g.truth
    idx = np.arange(g.size)
    k = np.abs(idx[:, None] - idx[None, :])
    if g.kind == "circle":
        return np.minimum(k, g.size - k) * g.weights[0]  # the weight is the step
    return k * (2 * g.weights[0])  # twice an end weight is the step


def dense_to_rows(full: np.ndarray, limit: float = math.inf):
    """The finite entries of ``full`` up to ``limit`` as ``(indices, values)``
    of sorted rows padded to the longest, one row at a time: each row's kept
    points by (distance, index), then the point n at distance ``inf``."""
    n = len(full)
    rows = []
    for d in full:
        kept = np.flatnonzero((d <= limit) & np.isfinite(d))
        rows.append(kept[np.lexsort((kept, d[kept]))])
    L = max((len(kept) for kept in rows), default=0)
    indices = np.full((n, L), n, dtype=np.int32)
    values = np.full((n, L), np.inf)
    for i, kept in enumerate(rows):
        indices[i, :len(kept)] = kept
        values[i, :len(kept)] = full[i, kept]
    return indices, values


def distance_rows(full: np.ndarray) -> DistanceRows:
    """``DistanceRows`` of every finite entry of ``full``."""
    return DistanceRows(*dense_to_rows(full))


def cache_bytes(full: np.ndarray) -> bytes:
    """The distance-cache file of the n x n matrix ``full``: uint64 vertex
    count, then the row-major float64 matrix, both little-endian."""
    return np.uint64(len(full)).astype("<u8").tobytes() + full.astype("<f8").tobytes()


def rows_to_dense(rows) -> np.ndarray:
    """``DistanceRows`` as an n x n matrix, ``inf`` where a row has no entry."""
    n = len(rows)
    d = np.full((n, n + 1), np.inf)  # the padding lands in column n
    d[np.arange(n)[:, None], rows.indices] = rows.values
    return d[:, :n]


def row_arrays(rows) -> list[tuple]:
    """The dtype, shape and bytes of the arrays of sorted rows, a
    ``DistanceRows`` or the pair ``dense_to_rows`` returns, to compare them
    bit for bit."""
    if isinstance(rows, DistanceRows):
        rows = rows.indices, rows.values
    return [(a.dtype.str, a.shape, a.tobytes()) for a in rows]


# --- one component ---------------------------------------------------------------

def component_balls_loop(g):
    """The per-center enumeration loop: (center, radius, inner, support) per
    distinct support, deduplicated on the support's bytes. The first center
    and its radius are kept; ``inner`` is the least inner radius over every
    center that realizes the support."""
    cap = g.radius_cap
    D = distances(g)
    seen = {}
    for center in range(g.size):
        d = D[center]
        in_cap = np.flatnonzero(d < cap)
        if not len(in_cap):
            continue
        order = in_cap[np.argsort(d[in_cap], kind="stable")].astype(np.int32)
        sorted_d = d[order]
        # prefix ends: one support per distinct in-cap distance value
        ends = np.append(np.flatnonzero(np.diff(sorted_d) > 0) + 1, len(order))
        for k in ends:
            inner = float(sorted_d[k - 1])
            if k < len(order):
                radius = float(sorted_d[k])  # support = {d < radius}
            elif len(order) == g.size and math.isinf(cap):
                radius = inner + 1.0
            else:
                radius = float(cap)
            support = np.sort(order[:k])
            key = support.tobytes()
            if key not in seen:
                seen[key] = (center, radius, inner, support)
            elif inner < seen[key][2]:
                seen[key] = seen[key][:2] + (inner,) + seen[key][3:]
    return list(seen.values())


@dataclass(frozen=True)
class ComponentBall:
    """One ball of a component: its center, a radius that realizes its
    support around that center, its inner radius and its sorted points."""

    center: int
    radius: float
    inner_radius: float
    indices: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)


_BALL_LISTS = weakref.WeakKeyDictionary()


def ball_list(balls) -> list[ComponentBall]:
    """A ``ComponentBalls`` as one ``ComponentBall`` per ball, in ball order,
    read from its whole kept mask at once. A ball's radius is the next
    distance of its center's row, or, for the row's widest prefix, the cap
    (the row's own distance there plus 1 for the whole grid under an
    infinite cap)."""
    if balls not in _BALL_LISTS:
        g = balls.grid
        listed = []
        for center, pos, inner in zip(*np.nonzero(balls.kept), balls.inner[balls.kept]):
            row = g.rows.values[center]
            row = row[row < math.inf]
            if pos + 1 < len(row):
                radius = row[pos + 1]
            elif pos + 1 == g.size and math.isinf(g.radius_cap):
                radius = row[pos] + 1.0
            else:
                radius = g.radius_cap
            listed.append(ComponentBall(
                int(center), float(radius), float(inner),
                np.sort(balls.order[center, :pos + 1]),
            ))
        _BALL_LISTS[balls] = listed
    return _BALL_LISTS[balls]


# --- the whole family as one sparse matrix --------------------------------------

def weight_matrix(family) -> csr_matrix:
    """(n_balls x grid size) CSR of support weights: the Kronecker product of
    the per-component (balls x points) weight matrices."""
    W = None
    for comp, balls in zip(family.domain.components, family.component_balls):
        balls = ball_list(balls)
        indptr = np.zeros(len(balls) + 1, dtype=np.int64)
        np.cumsum([b.size for b in balls], out=indptr[1:])
        indices = np.concatenate([b.indices for b in balls])
        W_comp = csr_matrix(
            (comp.weights[indices], indices, indptr), shape=(len(balls), comp.size)
        )
        W = W_comp if W is None else kron(W, W_comp, format="csr")
    W.sort_indices()
    return W


def cover_max(ball_values, family, ball_mask=None) -> np.ndarray:
    """Row-wise scatter-max of ball values into the grid points of each ball's
    CSR row; 0 where no (selected) ball covers a point."""
    W = weight_matrix(family)
    ball_ids = np.repeat(np.arange(family.n_balls), np.diff(W.indptr))
    entries = np.ones(W.nnz, dtype=bool)
    if ball_mask is not None:
        entries = np.asarray(ball_mask, dtype=bool)[ball_ids]
    out = np.zeros(W.shape[1])
    np.maximum.at(out, W.indices[entries], np.asarray(ball_values)[ball_ids[entries]])
    return out


# --- one product ball ----------------------------------------------------------

def product_ball(family, k: int):
    """The per-component balls of product ball k."""
    idx = np.unravel_index(k, family.shape)
    return tuple(ball_list(balls)[i] for balls, i in zip(family.component_balls, idx))


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
            for combo in itertools.product(*map(ball_list, family.component_balls))
        ]
    )


def grid_labels(domain):
    """Per-grid-point tuples of component point labels, in flat order."""
    labels = [c.points for c in domain.components]
    return [
        tuple(lab[i] for lab, i in zip(labels, multi))
        for multi in itertools.product(*(range(s) for s in domain.shape))
    ]


def pointwise_csv(domain, result, p) -> str:
    """Row-by-row ``pointwise.csv`` writer, one ``csv.writer`` row per grid point."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    ncomp = len(domain.components)
    writer.writerow(
        ["grid_id"] + [f"coord_{l}" for l in range(ncomp)] + ["T_obs", "p", "p_adj"]
    )
    for g, lab in enumerate(grid_labels(domain)):
        writer.writerow(
            [g]
            + [f"{v:.17g}" if isinstance(v, float) else v for v in lab]
            + [
                f"{result.observed_field[g]:.17g}",
                f"{p.pointwise[g]:.17g}",
                f"{p.adjusted[g]:.17g}",
            ]
        )
    return buf.getvalue()


def adjusted_csv(adjusted: np.ndarray) -> str:
    """Row-by-row ``adjusted.csv`` writer, one ``csv.writer`` row per grid point."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["grid_id", "p_adj"])
    for g in range(len(adjusted)):
        writer.writerow([g, f"{adjusted[g]:.17g}"])
    return buf.getvalue()


def balls_csv(family, result) -> str:
    """Row-by-row ``balls.csv`` writer, one ``csv.writer`` row per product ball."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["ball_id"]
    for l in range(len(family.component_balls)):
        header += [f"center_{l}", f"radius_{l}", f"inner_radius_{l}"]
    header += ["T_ball_obs", "p_ball"]
    writer.writerow(header)
    for k, combo in enumerate(itertools.product(*map(ball_list, family.component_balls))):
        row = [k]
        for b in combo:
            row += [b.center, f"{b.radius:.17g}", f"{b.inner_radius:.17g}"]
        row += [f"{result.observed_ball_stats[k]:.17g}", f"{result.p.ballwise[k]:.17g}"]
        writer.writerow(row)
    return buf.getvalue()


# --- the materialised permutation null -----------------------------------------

def permutations_loop(n_permutations: int, seed: int, n_obs: int):
    """B permutations of 0..N-1, one ``rng.permutation`` call per row from
    the seed's generator, and that generator after the last row."""
    rng = np.random.default_rng(seed)
    return np.array([rng.permutation(n_obs) for _ in range(n_permutations)]), rng


def permute_once(signals: np.ndarray, scheme: str, perm: np.ndarray) -> np.ndarray:
    """One permuted copy of the signal matrix under a reference scheme.

    ``"freedman_lane"`` under the intercept-only null model adds the permuted
    residual rows back to the model's fits, the column means;
    ``"raw_label_permutation"`` permutes the observation rows directly. The
    two are equal in exact arithmetic.
    """
    Y = np.asarray(signals, dtype=float)
    perm = np.asarray(perm, dtype=np.int64)
    if scheme == "raw_label_permutation":
        return Y[perm]
    if scheme != "freedman_lane":
        raise ValueError(f"unknown scheme {scheme!r}")
    fits = Y.mean(axis=0)
    return fits + (Y - fits)[perm]


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


def observed_field(signals, statistic, design) -> np.ndarray:
    """The statistic at every grid point: a ``StatKernel``'s identity row."""
    kernel = StatKernel(signals, statistic, design)
    return kernel.fields(np.arange(kernel.n_obs)[None, :])[0]


def null_distribution(
    signals, statistic, design, family, perms, scheme="raw_label_permutation"
) -> NullDistribution:
    """The full permutation null, every permuted field and ball statistic,
    one per row of the (B, N) ``perms``, each permuted copy of the signals
    made by ``permute_once`` under ``scheme``."""
    Y = np.asarray(signals, dtype=float)
    T_obs = observed_field(Y, statistic, design)
    ball_obs = family.ball_values(family.integrated_slots(T_obs))
    T_perm = np.stack(
        [observed_field(permute_once(Y, scheme, p), statistic, design) for p in perms]
    )
    ball_perm = family.ball_values(family.integrated_slots(T_perm)).T
    return NullDistribution(T_obs, ball_obs, T_perm, ball_perm)


def at_least(null, observed):
    """scipy ``permutation_test``'s tie rule: a null statistic within a
    relative 100 eps of the observed one counts as at least as extreme."""
    gamma = np.abs(100 * np.finfo(float).eps * observed)
    return null >= observed - gamma


def pvalues(nd: NullDistribution, family):
    """p-value fields from a materialised permutation null."""
    B = nd.n_permutations
    point_counts = at_least(nd.permuted_fields, nd.observed_field).sum(axis=0)
    ball_counts = at_least(nd.permuted_ball_stats, nd.observed_ball_stats).sum(axis=0)
    p_point = (1.0 + point_counts) / (B + 1.0)
    p_ball = (1.0 + ball_counts) / (B + 1.0)
    return PValueFields(p_point, p_ball, cover_max(p_ball, family), B)


# --- error rates ---------------------------------------------------------------

def error_rates_whole(rejections, truth, weights):
    """Sensitivity, FWER, FPR and FDR from float products of the whole
    (replicates, n) masks with the weights."""
    R, w = np.atleast_2d(rejections), np.asarray(weights, dtype=float)
    true_pos = (R[:, truth] * w[truth]).sum(axis=1)
    false_pos = (R[:, ~truth] * w[~truth]).sum(axis=1)
    total_rej = (R * w).sum(axis=1)
    fdr = np.where(total_rej > 0, false_pos / np.where(total_rej > 0, total_rej, 1.0), 0.0)
    return (np.mean(true_pos / w[truth].sum()), np.mean(false_pos > 0),
            np.mean(false_pos / w[~truth].sum()), np.mean(fdr))


# --- two-pass column statistics ------------------------------------------------

def _check_degenerate(numerator_zero: np.ndarray, se_zero: np.ndarray):
    bad = se_zero & ~numerator_zero
    if np.any(bad):
        raise ValueError(
            "zero residual variance with nonzero effect at grid point(s) "
            f"{np.nonzero(bad)[0].tolist()}"
        )


def t_two_sample_sq(y: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Squared pooled-variance two-sample t, columnwise.

    ``y`` is (N,) or (N, m); ``groups`` a length-N two-valued label vector.
    Zero pooled variance yields 0 when the group means agree and raises
    otherwise.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 1
    Y = y[:, None] if scalar else y
    groups = np.asarray(groups)
    labels = np.unique(groups)
    if len(labels) != 2:
        raise ValueError("two groups required")
    g1, g2 = groups == labels[0], groups == labels[1]
    n1, n2 = int(g1.sum()), int(g2.sum())
    if n1 < 2 or n2 < 2:
        raise ValueError("both groups need at least two observations")
    m1, m2 = Y[g1].mean(axis=0), Y[g2].mean(axis=0)
    v1 = Y[g1].var(axis=0, ddof=1)
    v2 = Y[g2].var(axis=0, ddof=1)
    sp2 = ((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2)
    se = np.sqrt(sp2 * (1.0 / n1 + 1.0 / n2))
    diff = m1 - m2
    zero = se == 0
    _check_degenerate(diff == 0, zero)
    t2 = np.zeros_like(diff)
    np.divide(diff, se, out=t2, where=~zero)
    t2 = t2 ** 2
    return float(t2[0]) if scalar else t2


def _slope_and_se(y: np.ndarray, t: np.ndarray):
    """Columnwise OLS slope and its standard error for y ~ 1 + t."""
    Y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    n = len(t)
    tc = t - t.mean()
    sxx = tc @ tc
    if sxx == 0:
        raise ValueError("covariate is constant")
    yc = Y - Y.mean(axis=0)
    b = tc @ yc / sxx
    rss = (yc ** 2).sum(axis=0) - b ** 2 * sxx
    rss = np.maximum(rss, 0.0)
    if n > 2:
        se = np.sqrt(rss / (n - 2) / sxx)
    else:
        se = np.full_like(np.atleast_1d(b), np.nan)
    return b, se


def t_trend_cutoff(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One-sided positive-trend statistic max(0, slope / SE), columnwise.

    A perfect fit (zero SE) with nonpositive slope is floored to 0 like any
    other nonpositive trend; a perfect positive fit has no finite value and
    raises.
    """
    y = np.asarray(y, dtype=float)
    if len(t) < 3:
        raise ValueError("trend t statistic needs at least 3 observations")
    scalar = y.ndim == 1
    b, se = _slope_and_se(y[:, None] if scalar else y, t)
    b, se = np.atleast_1d(b), np.atleast_1d(se)
    zero = se == 0
    _check_degenerate(b <= 0, zero)
    stat = np.zeros_like(b)
    np.divide(b, se, out=stat, where=~zero)
    stat = np.maximum(stat, 0.0)
    return float(stat[0]) if scalar else stat


def slope_sq(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Squared OLS slope of y on t, columnwise."""
    y = np.asarray(y, dtype=float)
    if len(t) < 2:
        raise ValueError("slope needs at least 2 observations")
    scalar = y.ndim == 1
    Y = y[:, None] if scalar else y
    t = np.asarray(t, dtype=float)
    tc = t - t.mean()
    sxx = tc @ tc
    if sxx == 0:
        raise ValueError("covariate is constant")
    b = tc @ (Y - Y.mean(axis=0)) / sxx
    out = b ** 2
    return float(out[0]) if scalar else out


# --- least squares ----------------------------------------------------------------

def design_matrix(covariates) -> np.ndarray:
    """Intercept column plus the covariates, N numbers or N x K; must be full
    column rank."""
    c = np.asarray(covariates, dtype=float)
    X = np.column_stack([np.ones(len(c)), c])
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise ValueError("design matrix is rank deficient")
    return X


def ols_fit(y: np.ndarray, X, compute_se: bool = True):
    """Ordinary least squares of y on the columns of the design matrix X
    (``design_matrix`` puts the intercept beside covariates).

    Returns (coefficients, residuals, standard_errors); standard errors are
    None when ``compute_se`` is False.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    if np.linalg.matrix_rank(X) < k:
        raise ValueError("design matrix is rank deficient")
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    se = None
    if compute_se:
        if n <= k:
            raise ValueError("too few observations for standard errors")
        s2 = resid @ resid / (n - k)
        xtx_inv = np.linalg.inv(X.T @ X)
        se = np.sqrt(s2 * np.diag(xtx_inv))
    return beta, resid, se
