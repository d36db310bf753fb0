"""Product domains and the discretized family of adjustment balls.

The domain M is an ordered product of component grids: a triangulated mesh,
an equally spaced circular grid, or an interval grid. The adjustment family
consists of Cartesian products of per-component metric balls whose radii stay
below the per-component caps. Balls are discretized to their vertex supports:
two balls with the same support are interchangeable for inference, so the
family stores one ball per distinct support.

Every support of a component is a prefix of one row of that component's
sorted-distance order (the points nearest a center), so the family is stored
as one prefix operator per component: integrated statistics are prefix sums
along those rows, applied one component axis at a time (Fubini).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .mesh import DistanceRows, TriangulatedManifold

__all__ = [
    "ComponentGrid",
    "ComponentBall",
    "ComponentBalls",
    "ProductDomain",
    "AdjustmentFamily",
    "mesh_component",
    "circle_component",
    "interval_component",
    "enumerate_component_balls",
    "enumerate_family",
    "FamilyTooLargeError",
]

# Cap on the number of product balls of a family. Inference keeps a few
# float64 values per ball (observed statistic, exceedance count, p-value, the
# statistics of a chunk of permutations) and balls.csv formats a row per
# ball, so 10 M balls take on the order of a gigabyte.
DEFAULT_MAX_BALLS = 10_000_000

# Prefix sums run over tiles of rows with at least TILE_ADD_VALUES values per
# add, which amortises numpy's per-call cost, and at most TILE_MAX_VALUES in
# all: a tile of short rows stays in cache and its buffer is reused instead of
# being faulted in afresh on every call.
TILE_ADD_VALUES = 1 << 12
TILE_MAX_VALUES = 1 << 22

# Support entries compared at once when duplicate supports are confirmed.
ENUMERATION_BLOCK = 1 << 20


@dataclass
class ComponentGrid:
    """One factor of the product domain.

    ``points`` carries a scalar label per grid point (mesh: vertex index;
    circle: arc-length position; interval: coordinate). ``weights`` are the
    per-point quadrature weights and ``rows`` the metric below the cap: for
    each center, the points at distance < ``radius_cap`` by (distance,
    index), with their distances. Nothing farther is ever needed.
    """

    kind: str  # "mesh" | "circle" | "interval"
    points: np.ndarray
    weights: np.ndarray
    rows: DistanceRows
    radius_cap: float = math.inf

    def __post_init__(self):
        self.points = np.asarray(self.points)
        self.weights = np.asarray(self.weights, dtype=float)
        n = len(self.points)
        if self.weights.shape != (n,) or len(self.rows) != n:
            raise ValueError("component arrays have inconsistent sizes")
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("component weights must be positive and finite")
        if not self.radius_cap > 0:  # also rejects nan
            raise ValueError("radius_cap must be positive (or inf)")

    @property
    def size(self) -> int:
        return len(self.points)

    def total_weight(self) -> float:
        return float(self.weights.sum())


def mesh_component(m: TriangulatedManifold, radius_cap: float = math.inf) -> ComponentGrid:
    """Wrap a triangulated mesh as a product-domain component.

    Distances not yet computed, or computed only out to a limit below
    ``radius_cap``, are computed out to ``radius_cap``: the balls need
    nothing farther. The component's rows are the mesh's rows below the cap,
    the very same object when every distance is below it.
    """
    if m.weights is None:
        m.compute_weights()
    if m.distances is None or m.distance_limit < radius_cap:
        m.compute_distances(limit=radius_cap)
    return ComponentGrid(
        kind="mesh",
        points=np.arange(m.n_vertices),
        weights=m.weights,
        rows=m.distances.below(radius_cap),
        radius_cap=radius_cap,
    )


def circle_component(
    n_points: int, circumference: float = 2 * math.pi, radius_cap: float = math.inf
) -> ComponentGrid:
    """n equally spaced points on a circle; distance is arc length."""
    if n_points < 1:
        raise ValueError("circle grid needs at least one point")
    if circumference <= 0:
        raise ValueError("circumference must be positive")
    step = circumference / n_points
    idx = np.arange(n_points)

    def block_rows(start, stop):
        k = np.abs(idx[start:stop, None] - idx[None, :])
        return np.minimum(k, n_points - k) * step

    return ComponentGrid(
        kind="circle",
        points=idx * step,
        weights=np.full(n_points, step),
        rows=DistanceRows.from_dense_blocks(n_points, block_rows, lambda d: d < radius_cap),
        radius_cap=radius_cap,
    )


def interval_component(
    a: float, b: float, n_points: int, radius_cap: float = math.inf
) -> ComponentGrid:
    """Equally spaced grid on [a, b] with trapezoid quadrature weights."""
    if n_points < 2:
        raise ValueError("interval grid needs at least two points")
    if not b > a:
        raise ValueError("interval must have b > a")
    pts = np.linspace(a, b, n_points)
    h = (b - a) / (n_points - 1)
    w = np.full(n_points, h)
    w[0] = w[-1] = h / 2

    def block_rows(start, stop):
        return np.abs(pts[start:stop, None] - pts[None, :])

    return ComponentGrid(
        kind="interval",
        points=pts,
        weights=w,
        rows=DistanceRows.from_dense_blocks(n_points, block_rows, lambda d: d < radius_cap),
        radius_cap=radius_cap,
    )


@dataclass(frozen=True)
class ComponentBall:
    """A distinct metric-ball support within one component grid.

    ``center`` is the first center realizing the support and ``radius`` a
    radius that realizes it around that center. ``inner_radius`` is the least
    over every center realizing the support of that center's largest distance
    inside it, so the support is admissible under exactly the caps strictly
    above it (0 for singletons, which are admissible under every cap).
    """

    center: int
    radius: float
    inner_radius: float
    indices: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(eq=False)
class ComponentBalls(Sequence):
    """The distinct ball supports of one component, as prefixes of sorted rows.

    Row i of ``order`` (n x L) lists the points below the cap around center i
    by (distance, index), padded with the sentinel n, whose weight is 0. Ball
    b is the first ``sizes[b]`` points of row ``centers[b]``, so its
    integrated statistic is a prefix sum along that row and the balls
    covering a point are those whose prefix reaches the point's position.
    Indexing yields the ball as a ``ComponentBall``.
    """

    order: np.ndarray        # (n, L) int32
    weights: np.ndarray      # (n,) point weights
    centers: np.ndarray      # (n_balls,) row of each ball
    sizes: np.ndarray        # (n_balls,) prefix length of each ball
    radii: np.ndarray        # (n_balls,)
    inner_radii: np.ndarray  # (n_balls,)
    # balls are in center order: those of row i are _ball_start[i:i + 2]
    _ball_start: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._ball_start = np.searchsorted(self.centers, np.arange(len(self.order) + 1))

    def __len__(self) -> int:
        return len(self.centers)

    def __getitem__(self, b) -> ComponentBall:
        center, size = int(self.centers[b]), int(self.sizes[b])
        return ComponentBall(
            center,
            float(self.radii[b]),
            float(self.inner_radii[b]),
            np.sort(self.order[center, :size]),
        )

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Weighted support sums along axis 0: (n, ...) -> (n_balls, ...)."""
        n, L = self.order.shape
        rest = values.shape[1:]
        weighted = np.zeros((n + 1,) + rest)  # row n: the sentinel
        np.multiply(
            self.weights.reshape((n,) + (1,) * len(rest)), values, out=weighted[:n]
        )
        weighted = weighted.reshape(n + 1, -1)
        r = weighted.shape[1]
        out = np.empty((len(self), r))
        rows = min(-(-TILE_ADD_VALUES // max(r, 1)), TILE_MAX_VALUES // max(L * r, 1))
        rows = max(rows, 1)
        for top in range(0, n, rows):
            bottom = min(n, top + rows)
            # the tile's rows by sorted position, accumulation axis
            # outermost: L - 1 contiguous adds, each value summed in row order
            block = weighted.take(self.order[top:bottom].T.ravel(), axis=0)
            block = block.reshape(L, bottom - top, r)
            for j in range(1, L):
                block[j] += block[j - 1]
            first, last = self._ball_start[top], self._ball_start[bottom]
            pick = (self.sizes[first:last] - 1) * (bottom - top) + (
                self.centers[first:last] - top
            )
            # every pick is in range; "clip" only spares take a buffered copy
            block.reshape(-1, r).take(pick, axis=0, out=out[first:last], mode="clip")
        return out.reshape((len(self),) + rest)

    def cover_max(self, ball_values: np.ndarray) -> np.ndarray:
        """Max over the covering balls along axis 0: (n_balls, ...) -> (n, ...).

        Points covered by no ball get 0, the floor of any p-value.
        """
        n, L = self.order.shape
        rest = ball_values.shape[1:]
        at_end = np.zeros((n, L, math.prod(rest)))
        at_end[self.centers, self.sizes - 1] = ball_values.reshape(len(self), -1)
        # the point at position j of a row lies in every prefix of that row
        # ending at or after j
        covering = np.maximum.accumulate(at_end[:, ::-1], axis=1)[:, ::-1]
        out = np.zeros((n + 1, at_end.shape[2]))
        np.maximum.at(out, self.order.ravel(), covering.reshape(n * L, -1))
        return out[:n].reshape((n,) + rest)


def _zobrist_keys(n: int) -> np.ndarray:
    """A fixed random uint64 per point; a support hashes to the XOR of its keys."""
    rng = np.random.default_rng(0x5EED)
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


def enumerate_component_balls(g: ComponentGrid) -> ComponentBalls:
    """All distinct ball supports of one component under its radius cap.

    Only the in-cap rows are read. Each distinct in-cap value v of a row
    gives the support {d <= v} with inner radius v; its radius is the next
    in-cap value, or, for the widest support, the cap (``v + 1`` when the cap
    is infinite and the support is the whole grid). Supports are
    deduplicated across centers, keeping the first center that realizes
    each and its radius, and the least inner radius of any center that
    realizes it: candidates are grouped by size and Zobrist hash, and every
    duplicate is confirmed exactly against its group's first candidate, so a
    hash collision never merges two supports.
    """
    n, cap, rows = g.size, g.radius_cap, g.rows
    counts = np.diff(rows.indptr)
    L = int(counts.max())
    row = np.repeat(np.arange(n), counts)
    pos = np.arange(len(row)) - rows.indptr[row]
    order = np.full((n, L), n, dtype=np.int32)
    order[row, pos] = rows.indices
    sorted_d = np.full((n, L + 1), np.inf)
    sorted_d[row, pos] = rows.values
    del row, pos

    # a prefix of length j + 1 is a support where the sorted distance grows
    brow, bpos = np.nonzero(sorted_d[:, 1:] > sorted_d[:, :-1])
    sizes = bpos + 1
    inner = sorted_d[brow, bpos]
    radius = sorted_d[brow, bpos + 1]
    widest = sizes == counts[brow]
    radius[widest] = cap
    if math.isinf(cap):
        whole = widest & (sizes == n)
        radius[whole] = inner[whole] + 1.0

    keys = np.append(_zobrist_keys(n), np.uint64(0))
    hashes = np.bitwise_xor.accumulate(keys[order], axis=1)[brow, bpos]
    first = _first_equal_support(order, brow, sizes, hashes)
    is_ball = first == np.arange(len(first))
    # a support is admissible under a cap as soon as any of its centers is
    least_inner = inner.copy()
    np.minimum.at(least_inner, first, inner)
    return ComponentBalls(
        order=order,
        weights=g.weights,
        centers=brow[is_ball],
        sizes=sizes[is_ball],
        radii=radius[is_ball],
        inner_radii=least_inner[is_ball],
    )


def _first_equal_support(order, rows, sizes, hashes) -> np.ndarray:
    """For each candidate (prefix ``sizes[i]`` of row ``rows[i]``, in scan
    order), the index of the first candidate with the same support."""
    first = np.empty(len(rows), dtype=np.intp)
    todo = np.arange(len(rows))
    while len(todo):
        # lexsort is stable, so each (size, hash) group starts with its
        # first candidate in scan order
        perm = np.lexsort((hashes[todo], sizes[todo]))
        s = todo[perm]
        starts = np.ones(len(s), dtype=bool)
        starts[1:] = (sizes[s[1:]] != sizes[s[:-1]]) | (hashes[s[1:]] != hashes[s[:-1]])
        lead = np.empty_like(todo)
        lead[perm] = s[np.maximum.accumulate(np.where(starts, np.arange(len(s)), 0))]
        same = _same_support(order, rows, sizes, lead, todo)
        first[todo[same]] = lead[same]
        todo = todo[~same]  # collided with another support: regroup
    return first


def _same_support(order, rows, sizes, lead, cand) -> np.ndarray:
    """Whether each candidate's support equals its group lead's.

    Both are prefixes of the same size, so they are equal when their points,
    sorted, are; no distance is needed.
    """
    same = lead == cand
    check = np.flatnonzero(~same)
    k = sizes[cand[check]]
    ends = np.cumsum(k)
    stride = order.shape[0] + 1
    start = 0
    while start < len(check):
        limit = ends[start] - k[start] + ENUMERATION_BLOCK
        stop = max(start + 1, int(np.searchsorted(ends, limit, "right")))
        part, kk = check[start:stop], k[start:stop]
        offsets = np.cumsum(kk) - kk
        seg = np.repeat(np.arange(len(part)), kk)
        col = np.arange(len(seg)) - offsets[seg]
        # points keyed by their pair, so one sort orders every pair's points
        ours = np.sort(seg * stride + order[rows[cand[part]][seg], col])
        theirs = np.sort(seg * stride + order[rows[lead[part]][seg], col])
        same[part] = ~np.logical_or.reduceat(ours != theirs, offsets)
        start = stop
    return same


@dataclass
class ProductDomain:
    """Ordered product of component grids with product quadrature weights."""

    components: list[ComponentGrid]

    def __post_init__(self):
        if not self.components:
            raise ValueError("product domain needs at least one component")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c.size for c in self.components)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def grid_weights(self) -> np.ndarray:
        """Flattened product weights, C-order over the component grids."""
        w = self.components[0].weights
        for c in self.components[1:]:
            w = np.multiply.outer(w, c.weights)
        return w.ravel()

    def grid_labels(self):
        """Per-grid-point tuples of component point labels, in flat order."""
        labels = [c.points for c in self.components]
        return [
            tuple(lab[i] for lab, i in zip(labels, multi))
            for multi in itertools.product(*(range(s) for s in self.shape))
        ]


@dataclass
class AdjustmentFamily:
    """Cartesian products of per-component ball supports over a product domain.

    ``component_balls`` holds one ``ComponentBalls`` operator per component
    and is the family's only description: product ball k is
    ``np.unravel_index(k, shape)`` over the per-component ball counts
    ``shape``, which is ``itertools.product`` order.
    """

    domain: ProductDomain
    component_balls: list[ComponentBalls]

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of distinct balls in each component."""
        return tuple(len(balls) for balls in self.component_balls)

    @property
    def n_balls(self) -> int:
        return math.prod(self.shape)

    @property
    def n_memberships(self) -> int:
        """Total (ball, grid point) support memberships of the product balls."""
        return math.prod(int(balls.sizes.sum()) for balls in self.component_balls)

    def _integration_axes(self) -> list[int]:
        # shortest sorted rows first: a component's pass gathers L_c values
        # per value of its input, so this keeps the first, largest input's
        # gather smallest
        return sorted(
            range(len(self.component_balls)),
            key=lambda c: self.component_balls[c].order.shape[1],
        )

    @property
    def column_bytes(self) -> int:
        """Bytes per stacked field that ``integrated_stats`` may hold at once,
        an upper estimate: in one component's pass, the input, its weighted
        copy and gathered rows, the output and its reordered copy, all
        float64 (the last output is the ball statistics)."""
        sizes = [self.domain.size]
        for c in self._integration_axes():
            balls = self.component_balls[c]
            sizes.append(sizes[-1] // len(balls.order) * len(balls))
        return 8 * max(3 * a + 2 * b for a, b in zip(sizes, sizes[1:]))

    def integrated_stats(self, stat_fields: np.ndarray) -> np.ndarray:
        """Weighted support sums of one stat field (m,) or a stack (B, m).

        Returns (n_balls,) or (n_balls, B). The sum over a product ball is
        the iterated sum over its component supports (Fubini), so each
        component's prefix operator runs along its own axis of the
        (n_1, ..., n_L, B) field tensor. Every value is computed element by
        element, so it does not depend on how fields are stacked.
        """
        fields = np.asarray(stat_fields, dtype=float)
        stack = fields.shape[:-1][::-1]
        X = fields.T.reshape(self.domain.shape + stack)
        for c in self._integration_axes():
            balls = self.component_balls[c]
            X = np.moveaxis(balls.integrate(np.moveaxis(X, c, 0)), 0, c)
        return X.reshape((self.n_balls,) + stack)

    def cover_max(self, ball_values: np.ndarray) -> np.ndarray:
        """Per grid point, the max of ``ball_values`` over the balls covering it.

        A max over a product of sets is an iterated max, so each component's
        operator maps its ball axis to its point axis in turn. Points covered
        by no ball get 0.
        """
        V = np.asarray(ball_values, dtype=float).reshape(self.shape)
        for c, balls in enumerate(self.component_balls):
            V = np.moveaxis(balls.cover_max(np.moveaxis(V, c, 0)), 0, c)
        return V.ravel()

    def admissible_mask(self, caps) -> np.ndarray:
        """Which balls survive under new per-component radius caps.

        A product ball survives when every component's inner radius is
        strictly below that component's cap.
        """
        caps = list(caps)
        if len(caps) != len(self.domain.components):
            raise ValueError("one cap per component required")
        per_component = [
            balls.inner_radii < cap for balls, cap in zip(self.component_balls, caps)
        ]
        return functools.reduce(np.logical_and.outer, per_component).ravel()


class FamilyTooLargeError(ValueError):
    """The adjustment family has more balls than the limit allows."""


def enumerate_family(
    d: ProductDomain, max_balls: int = DEFAULT_MAX_BALLS
) -> AdjustmentFamily:
    """Cartesian products of the per-component ball supports.

    Component supports are already deduplicated and products of distinct
    supports are distinct, so no cross-component dedup is needed. Raises if
    the family would have more than ``max_balls`` balls.
    """
    per_component = [enumerate_component_balls(c) for c in d.components]
    n_balls = math.prod(len(balls) for balls in per_component)
    if n_balls > max_balls:
        raise FamilyTooLargeError(
            f"adjustment family would have {n_balls} balls (limit {max_balls}); "
            "use smaller radius caps or a coarser grid"
        )
    return AdjustmentFamily(d, per_component)
