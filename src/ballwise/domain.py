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
along those rows, applied one component axis at a time (Fubini). The
supports are enumerated size by size, since only supports of equal size can
coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import DistanceRows, TriangulatedManifold, check_memory, memory_limit

__all__ = [
    "ComponentGrid",
    "ComponentBalls",
    "ProductDomain",
    "AdjustmentFamily",
    "mesh_component",
    "circle_component",
    "interval_component",
    "enumerate_component_balls",
    "enumerate_family",
    "memory_bound",
    "memory_limit",
    "FamilyTooLargeError",
]

# A chunk of permutations is CHUNK_PERMUTATIONS, fewer when its working
# memory would pass CHUNK_BYTES: the tile buffers of ball counting
# (tile_bytes(), the same for every chunk) and, per permutation, column_bytes
# or the stat kernel's temporaries (KERNEL_FIELDS fields), whichever is more.
# Larger domains get smaller chunks.
CHUNK_PERMUTATIONS = 32
CHUNK_BYTES = 64 * 2**20
KERNEL_FIELDS = 5

# Prefix sums run over tiles of at most TILE_VALUES values (512 KiB) of the
# sorted rows: as many rows as fit at one position each, then as many positions
# as fit beside them, so adds are long and the tile buffers stay in cache.
TILE_VALUES = 1 << 16


@dataclass
class ComponentGrid:
    """One factor of the product domain.

    ``points`` carries a scalar label per grid point (mesh: vertex index;
    circle: arc-length position; interval: coordinate). ``weights`` are the
    per-point quadrature weights, positive and finite (a mesh's
    ``compute_weights`` checks its own; a circle's or an interval's follow
    from its checked parameters), and ``rows`` the metric below the cap: for
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
        if not self.radius_cap > 0:  # also rejects nan
            raise ValueError("radius_cap must be positive (or inf)")

    @property
    def size(self) -> int:
        return len(self.points)

    def total_weight(self) -> float:
        return float(self.weights.sum())


def mesh_component(
    m: TriangulatedManifold, radius_cap: float = math.inf, rows: DistanceRows | None = None
) -> ComponentGrid:
    """Wrap a triangulated mesh as a product-domain component.

    The component's rows are ``rows`` below the cap, the very same object
    when every distance is below it: the mesh's distances out to at least
    ``radius_cap``, read from a cache or searched. Without ``rows`` the mesh
    is searched out to ``radius_cap``: the balls need nothing farther.
    """
    if m.weights is None:
        m.compute_weights()
    if rows is None:
        rows = m.compute_distances(limit=radius_cap)
    return ComponentGrid(
        kind="mesh",
        points=np.arange(m.n_vertices),
        weights=m.weights,
        rows=rows.below(radius_cap),
        radius_cap=radius_cap,
    )


def circle_component(
    n_points: int, circumference: float = 2 * math.pi, radius_cap: float = math.inf
) -> ComponentGrid:
    """n equally spaced points on a circle; distance is arc length."""
    if n_points < 1:
        raise ValueError("circle grid needs at least one point")
    step = circumference / n_points
    if not 0 < step < math.inf:  # the weights; nan fails too
        raise ValueError("circumference must be positive and finite")
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
    """Equally spaced grid on [a, b] with trapezoid quadrature weights; the
    distance of points i and j is |i - j| steps, so equal gaps tie exactly."""
    if n_points < 2:
        raise ValueError("interval grid needs at least two points")
    h = (b - a) / (n_points - 1)
    if not 0 < h < math.inf:  # the weights; nan fails too
        raise ValueError("interval must have finite bounds with b > a")
    w = np.full(n_points, h)
    w[0] = w[-1] = h / 2
    idx = np.arange(n_points)

    def block_rows(start, stop):
        return np.abs(idx[start:stop, None] - idx[None, :]) * h

    return ComponentGrid(
        kind="interval",
        points=np.linspace(a, b, n_points),
        weights=w,
        rows=DistanceRows.from_dense_blocks(n_points, block_rows, lambda d: d < radius_cap),
        radius_cap=radius_cap,
    )


@dataclass(eq=False)
class ComponentBalls:
    """The distinct ball supports of one component, as prefixes of sorted rows.

    ``order`` is the grid's own sorted rows, ``grid.rows.indices``: row i
    (n x L) lists the points below the cap around center i by (distance,
    index), padded with the point n, which weighs 0 here. ``inner[i, j]`` is
    the inner radius of the ball that is the first j + 1 points of row i,
    ``inf`` where that prefix is no ball: the balls are ``kept``, ``inner <
    inf``, and a cap keeps ``inner < cap``. A ball's integrated statistic is
    a prefix sum along its row, and the balls covering a point are those
    whose prefix reaches the point's position. Sums, tie floors, counts and
    the covering max all lie on one slot grid (L, n, ...), slot (j, i) for
    the first j + 1 points of row i, whose kept slots ``ball_values`` reads
    and ``to_slots`` writes. Balls are numbered in row-major order of
    ``kept`` (by center, then by size); ``table`` gives their centers, radii
    and inner radii. A ball's center is the first center realizing its
    support, and its inner radius the least over every center realizing the
    support of that center's largest distance inside it, so the support is
    admissible under exactly the caps strictly above it (0 for singletons,
    which are admissible under every cap).
    """

    grid: ComponentGrid
    inner: np.ndarray  # (n, L) float64, inf where no ball
    # the balls of row i are _row_start[i]:_row_start[i + 1]
    _row_start: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._row_start = np.zeros(len(self.inner) + 1, dtype=np.int64)
        np.cumsum(self.kept.sum(axis=1), out=self._row_start[1:])

    @property
    def order(self) -> np.ndarray:
        """(n, L) int32: the sorted rows, ``grid.rows.indices`` itself."""
        return self.grid.rows.indices

    @property
    def kept(self) -> np.ndarray:
        """(n, L) bool: the slots that are balls, worked out on each call."""
        return self.inner < math.inf

    def __len__(self) -> int:
        return int(self._row_start[-1])

    def table(self, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Center, radius and inner radius of the balls ``ids``.

        Only the rows of those balls are read. A ball's radius realizes its
        support around its center: the next distance of its row, or the cap
        past the row's last entry (the row's own distance there plus 1 when
        the cap is infinite and the prefix is the whole grid).
        """
        ids = np.asarray(ids, dtype=np.int64)
        centers = np.searchsorted(self._row_start, ids, side="right") - 1
        read, which = np.unique(centers, return_inverse=True)
        # the kept slots of the rows read, row after row, and where each
        # row's first ball is among them
        slots = np.flatnonzero(self.inner[read] < math.inf)
        counts = self._row_start[read + 1] - self._row_start[read]
        at = (np.cumsum(counts) - counts)[which] + ids - self._row_start[centers]
        positions = slots[at] % self.inner.shape[1]
        rows, cap = self.grid.rows, self.grid.radius_cap
        radii = np.minimum(rows.next_distance(centers, positions), cap)
        if math.isinf(cap):
            whole = positions + 1 == self.grid.size
            radii[whole] = rows.values[centers[whole], positions[whole]] + 1.0
        return centers, radii, self.inner[centers, positions]

    def _prefix_blocks(self, values: np.ndarray):
        """Weighted support sums along axis 0 of ``values`` (n, ...), tile by tile.

        Yields ``(top, p0, block)``: ``block[j, i]`` (span, rows, r), with r
        the size of a row of ``values``, is the running sum of row ``top + i``
        through its position ``p0 + j``, the sum of the ball in that slot
        when the slot is kept. ``block`` is the buffer that every tile of the
        call is gathered into: as many rows as fit TILE_VALUES values at one
        position each, then as many positions as fit beside them, or one
        position of one row when that alone is more. Longer rows are split
        into spans, and the running prefix carries from one span into the
        next, so every sum adds the same values in the same order however the
        rows are split.
        """
        n, L = self.inner.shape
        rest = values.shape[1:]
        weighted = np.zeros((n + 1,) + rest)  # row n: the sentinel
        np.multiply(
            self.grid.weights.reshape((n,) + (1,) * len(rest)), values, out=weighted[:n]
        )
        weighted = weighted.reshape(n + 1, -1)
        r = weighted.shape[1]
        rows = min(n, max(TILE_VALUES // r, 1))
        span = min(L, max(TILE_VALUES // (rows * r), 1))
        buf = np.empty(span * rows * r)
        index = np.empty(span * rows, dtype=np.intp)
        carry = np.empty((rows, r)) if span < L else None
        for top in range(0, n, rows):
            k = min(n, top + rows) - top
            for p0 in range(0, L, span):
                width = min(span, L - p0)
                # the rows by sorted position, accumulation axis outermost:
                # contiguous adds, each value summed in row order
                at = index[:width * k].reshape(width, k)
                np.copyto(at, self.order[top:top + k, p0:p0 + width].T)
                block = buf[:width * k * r].reshape(width, k, r)
                # every index is in range; "clip" only spares a buffered copy
                weighted.take(at.ravel(), axis=0, out=block.reshape(-1, r), mode="clip")
                if p0:
                    block[0] += carry[:k]
                for j in range(1, width):
                    block[j] += block[j - 1]
                if p0 + width < L:
                    carry[:k] = block[-1]
                yield top, p0, block

    def prefix_sums(self, values: np.ndarray) -> np.ndarray:
        """Weighted prefix sums along axis 0, (n, ...) -> slots (L, n, ...)."""
        n, L = self.inner.shape
        rest = values.shape[1:]
        out = np.empty((L, n, math.prod(rest)))
        for top, p0, block in self._prefix_blocks(values):
            span, k = block.shape[:2]
            out[p0:p0 + span, top:top + k] = block
        return out.reshape((L, n) + rest)

    def ball_values(self, slots: np.ndarray) -> np.ndarray:
        """The balls' entries of a slot grid (L, n, ...), in ball order."""
        return slots.swapaxes(0, 1)[self.kept]

    def to_slots(self, ball_values: np.ndarray) -> np.ndarray:
        """The inverse of ``ball_values``: (n_balls, ...) onto a slot grid of
        the same dtype, 0 in the slots that are not balls."""
        n, L = self.inner.shape
        slots = np.zeros((L, n) + ball_values.shape[1:], dtype=ball_values.dtype)
        slots.swapaxes(0, 1)[self.kept] = ball_values
        return slots

    def count_exceedances(
        self, values: np.ndarray, floor: np.ndarray, counts: np.ndarray
    ) -> None:
        """Add to ``counts`` how many sums along axis 0 reach ``floor``.

        ``values`` is (n, ..., B), B stacked fields. ``floor`` and ``counts``
        are on the slot grid (L, n, ...): slot (j, i) is the prefix of the
        first j + 1 points of row i, a ball where ``kept[i, j]``. ``counts``,
        a contiguous integer array (int32 in ``run_inference``), is updated
        in place; at a kept slot it gains how many of the B sums of its ball
        reach its floor, and other slots gain what their prefixes would. Each
        tile (TILE_VALUES sums at most) is compared in place with the floors
        of its slots, so neither the (n_balls, ..., B) sums nor a pick of the
        kept ones is ever built.

        The B comparisons of a slot go to zero-padded bytes, added as 8-byte
        words, so each byte lane counts at most one comparison per word, and
        multiplying by 0x0101010101010101 sums the eight lanes into the top
        byte, which holds the count while it stays below 256: B is at most
        248, 31 words.
        """
        B = values.shape[-1]
        if B > 8 * 31:
            raise ValueError(f"at most 248 fields are counted at once, got {B}")
        words = -(-B // 8)
        L, n = counts.shape[:2]
        floor = floor.reshape(L, n, -1)
        counts = counts.reshape(L, n, -1)
        others = counts.shape[2]
        lanes = None
        for top, p0, block in self._prefix_blocks(values):
            span, k = block.shape[:2]
            tile = np.s_[p0:p0 + span, top:top + k]
            size = block.size // B * words
            if lanes is None:  # the first tile is the largest; its padding stays 0
                lanes = np.zeros(size, dtype=np.uint64)
            word = lanes[:size].reshape(-1, words)
            np.greater_equal(
                block.reshape(span, k, others, B),
                floor[tile][..., None],
                out=word.view(bool).reshape(span, k, others, 8 * words)[..., :B],
            )
            total = word[:, 0].copy()
            for w in range(1, words):
                total += word[:, w]
            total *= np.uint64(0x0101010101010101)
            total >>= np.uint64(56)
            counts[tile] += total.view(np.int64).reshape(span, k, others)

    def cover(self, slots: np.ndarray, cap: float) -> np.ndarray:
        """Max over the covering balls of a slot grid: (L, n, ...) -> (n, ...).

        Only the slots of balls whose inner radius is below ``cap`` are read;
        ``slots``, if contiguous, is overwritten. Points covered by no such
        ball get 0, below any p-value and any count numerator.
        """
        n, L = self.inner.shape
        # not balls (inf) and balls not below the cap alike; in the grid's own
        # order, as a cap may drop most slots
        slots[np.greater_equal(self.inner, cap).T] = 0
        flat = slots.reshape(L, n, -1)
        # the point at position j of a row lies in every prefix of that row
        # ending at or after j
        np.maximum.accumulate(flat[::-1], axis=0, out=flat[::-1])
        out = np.zeros((n + 1, flat.shape[2]), dtype=slots.dtype)
        np.maximum.at(out, self.order.T, flat)
        return out[:n].reshape((n,) + slots.shape[2:])


def _zobrist_keys(n: int) -> np.ndarray:
    """A fixed random uint64 per point; a support hashes to the XOR of its keys."""
    rng = np.random.default_rng(0x5EED)
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


def enumerate_component_balls(g: ComponentGrid) -> ComponentBalls:
    """All distinct ball supports of one component under its radius cap.

    Only the in-cap rows are read. Each distinct in-cap value v of a row
    gives the support {d <= v} with inner radius v, the prefix of the row
    up to the last v. Supports are deduplicated across centers, keeping the
    first center that realizes each, and the least inner radius of any
    center that realizes it.

    Supports are enumerated size by size, so a support can only equal
    another of the same size: each row keeps a running Zobrist hash of its
    prefix, and only candidates whose hashes are equal are grouped, exactly,
    by their sorted points, so a hash collision never merges two supports.
    """
    order, values = g.rows.indices, g.rows.values
    keys = np.append(_zobrist_keys(g.size), np.uint64(0))  # the padding point n: 0
    h = np.zeros(g.size, dtype=np.uint64)
    inner_at = np.full(values.shape, np.inf)
    for k in range(1, values.shape[1] + 1):
        h ^= keys[order[:, k - 1]]
        # a prefix of length k is a support where the sorted distance grows,
        # as it does past a row's last entry, and never inside its padding
        grows = g.rows.next_distance(slice(None), k - 1) > values[:, k - 1]
        c = np.flatnonzero(grows)
        inner = values[c, k - 1]
        hc = h[c]
        hs = np.sort(hc)
        repeated = hs[1:][hs[1:] == hs[:-1]]
        if len(repeated):
            # candidates whose hash is shared; all but each support's first go.
            # A lookup in the sorted ``repeated``: np.isin would sort it again
            # and import numpy.ma
            pos = np.searchsorted(repeated, hc).clip(max=len(repeated) - 1)
            dropped = repeated[pos] == hc
            sub = np.flatnonzero(dropped)
            prefix = np.sort(order[c[sub], :k], axis=1)
            # sorted lexicographically, equal supports form runs; lexsort is
            # stable, so each run starts with the support's first candidate
            s = np.lexsort(prefix.T[::-1])
            prefix, sub = prefix[s], sub[s]
            starts = np.flatnonzero(np.r_[True, (prefix[1:] != prefix[:-1]).any(axis=1)])
            # a support is admissible under a cap as soon as any of its centers is
            inner[sub[starts]] = np.minimum.reduceat(inner[sub], starts)
            dropped[sub[starts]] = False
            c, inner = c[~dropped], inner[~dropped]
        inner_at[c, k - 1] = inner
    return ComponentBalls(grid=g, inner=inner_at)


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
        return math.prod(
            int(balls.kept.sum(axis=0) @ np.arange(1, balls.inner.shape[1] + 1))
            for balls in self.component_balls
        )

    def _integration_axes(self) -> list[int]:
        # shortest sorted rows first: a component's pass gathers L_c values
        # per value of its input, so this keeps the first, largest input's
        # gather smallest
        return sorted(
            range(len(self.component_balls)),
            key=lambda c: self.component_balls[c].inner.shape[1],
        )

    @property
    def column_bytes(self) -> int:
        """Bytes per stacked field that ``count_exceedances`` may hold at once,
        an upper estimate, all float64: the field itself, and in each
        component's pass its input, weighted copy, slot grid and ball sums,
        the last pass having no output, since it counts in its tiles. The
        tiles' buffers are ``tile_bytes()`` in all, unless one position holds
        more than TILE_VALUES; four such positions per field count here."""
        balls = [self.component_balls[c] for c in self._integration_axes()]
        return _column_bytes(self.domain.size, [(*b.inner.shape, len(b)) for b in balls])

    def chunk_size(self) -> int:
        """Permutations per chunk: CHUNK_PERMUTATIONS, fewer when their
        working memory and the tiles would pass CHUNK_BYTES, and at least one."""
        per_field = max(self.column_bytes, KERNEL_FIELDS * 8 * self.domain.size)
        return max(1, min(CHUNK_PERMUTATIONS, (CHUNK_BYTES - tile_bytes()) // per_field))

    def _integrate_axes(self, fields: np.ndarray, axes) -> np.ndarray:
        """The (n_1, ..., n_L, B) tensor of a stat field (m,) or a stack
        (B, m), with the components ``axes`` integrated, in that order."""
        X = fields.T.reshape(self.domain.shape + fields.shape[:-1][::-1])
        for c in axes:
            balls = self.component_balls[c]
            sums = balls.prefix_sums(np.moveaxis(X, c, 0))
            X = np.moveaxis(balls.ball_values(sums), 0, c)
        return X

    def integrated_slots(self, stat_fields: np.ndarray) -> np.ndarray:
        """Weighted support sums of one stat field (m,) or a stack (B, m).

        The sum over a product ball is the iterated sum over its component
        supports (Fubini), so each component's prefix operator runs along its
        own axis of the (n_1, ..., n_L, B) field tensor. The result is the
        last one's slot grid (L, n, ..., B), the other components' balls on
        its middle axes. Every value is computed element by element, so it
        does not depend on how fields are stacked.
        """
        fields = np.asarray(stat_fields, dtype=float)
        *axes, last = self._integration_axes()
        X = self._integrate_axes(fields, axes)
        return self.component_balls[last].prefix_sums(np.moveaxis(X, last, 0))

    def ball_values(self, slots: np.ndarray) -> np.ndarray:
        """The (n_balls, ...) entries, in family order, of a slot grid."""
        last = self._integration_axes()[-1]
        values = np.moveaxis(self.component_balls[last].ball_values(slots), 0, last)
        return values.reshape((self.n_balls,) + slots.shape[len(self.shape) + 1:])

    def to_slots(self, ball_values: np.ndarray) -> np.ndarray:
        """The inverse of ``ball_values``: (n_balls, ...) onto the slot grid,
        same dtype, 0 in the slots that are not balls."""
        last = self._integration_axes()[-1]
        V = ball_values.reshape(self.shape + ball_values.shape[1:])
        return self.component_balls[last].to_slots(np.moveaxis(V, last, 0))

    def count_exceedances(
        self, stat_fields: np.ndarray, floor_slots: np.ndarray, count_slots: np.ndarray
    ) -> None:
        """Add to ``count_slots`` how many fields of a stack (B, m) reach
        ``floor_slots``.

        Both are on the slot grid of ``integrated_slots``, field axis aside,
        and ``count_slots``, a contiguous integer array, is updated in place:
        ``ball_values`` of it gains how many of the bitwise same sums reach
        ``ball_values(floor_slots)``. The last component's pass compares each
        tile of running sums with the floors of its slots, so the (n_balls,
        B) statistics are never built.
        """
        fields = np.atleast_2d(np.asarray(stat_fields, dtype=float))
        *axes, last = self._integration_axes()
        X = self._integrate_axes(fields, axes)
        self.component_balls[last].count_exceedances(
            np.moveaxis(X, last, 0), floor_slots, count_slots
        )

    def cover(self, slots: np.ndarray, caps=None) -> np.ndarray:
        """Per grid point, the max over the balls covering it of a slot grid
        (``integrated_slots``' layout, no field axis), which is overwritten.

        A max over a product of sets is an iterated max, so each component's
        operator maps its ball axis to its point axis in turn: the last
        integrated one on the slot grid itself, the others on ``to_slots`` of
        their ball axes. Points covered by no ball get 0. With ``caps``, one
        per component, each operator drops its balls whose inner radius is not
        below its cap: as no value is below 0, that drops every product ball
        that is not admissible under the caps.
        """
        caps = [math.inf] * len(self.component_balls) if caps is None else list(caps)
        if len(caps) != len(self.component_balls):
            raise ValueError("one cap per component required")
        if not all(cap > 0 for cap in caps):  # also rejects nan
            raise ValueError("radius caps must be positive (or inf)")
        *axes, last = self._integration_axes()
        V = np.moveaxis(self.component_balls[last].cover(slots, caps[last]), 0, last)
        for c in axes:
            balls = self.component_balls[c]
            V = np.moveaxis(balls.cover(balls.to_slots(np.moveaxis(V, c, 0)), caps[c]), 0, c)
        return V.ravel()


def _column_bytes(m: int, parts: list[tuple[int, int, int]]) -> int:
    """``column_bytes`` on m points of components (rows, row length, balls),
    in integration order."""
    held, a = [], m
    for i, (n, L, balls) in enumerate(parts):
        row = a // n
        b = row * (n * L + balls) if i + 1 < len(parts) else 0
        # the first pass's input is the field
        held.append((a if i else 0) + a + row + b + 4 * row)
        a = row * balls
    return 8 * (m + max(held))


def tile_bytes() -> int:
    """Bytes of the tile buffers of one ``count_exceedances`` call, on top of
    ``column_bytes`` per field: five of TILE_VALUES 8-byte values (the
    gathered block, its carry, the index copy, the comparison padded to whole
    words, 8 bytes per value for a single field, and the lane words), and
    numpy's iteration buffers, at most three."""
    return 8 * (5 * TILE_VALUES + 3 * np.getbufsize())


def memory_bound(d: ProductDomain) -> int:
    """An upper bound, worked out before anything is enumerated, on the bytes
    that the family of ``d`` and inference on it hold at once.

    A component's balls are at most its slots where a row's distance grows.
    Its sorted rows hold 12 bytes per slot (the points, which the balls read
    as ``order``, and their distances) and its family 9 (``inner`` and one
    transient bool). On the last integrated component's slot grid, counting
    holds 12 bytes per slot (tie floors, int32 counts) and a chunk of
    permutations, and 8 bytes per product ball (the observed sums); covering
    holds 5 per slot (the counts, the unkept mask) and 20 per product ball
    (the observed sums, the p-values and the counts they are read from).
    """
    parts, family = [], 0
    for g in d.components:
        values = g.rows.values
        n, L = values.shape
        # every row end, and at most every rise along a row, into its padding too
        balls = n + int(np.count_nonzero(values[:, 1:] > values[:, :-1]))
        parts.append((n, L, balls))
        family += (12 + 9) * n * L
    parts.sort(key=lambda part: part[1])  # integration order: shortest rows first
    n_balls = math.prod(balls for _, _, balls in parts)
    n, L, balls = parts[-1]
    slots = n * L * (n_balls // balls)
    per_field = max(_column_bytes(d.size, parts), KERNEL_FIELDS * 8 * d.size)
    chunk = max(CHUNK_BYTES, per_field + tile_bytes())
    return family + max(12 * slots + 8 * n_balls + chunk, 5 * slots + 20 * n_balls)


class FamilyTooLargeError(ValueError):
    """The family and inference on it would need more memory than the limit."""


def enumerate_family(d: ProductDomain) -> AdjustmentFamily:
    """Cartesian products of the per-component ball supports.

    Component supports are already deduplicated and products of distinct
    supports are distinct, so no cross-component dedup is needed. Raises,
    before enumerating anything, when ``memory_bound`` exceeds
    ``memory_limit``.
    """
    check_memory("the adjustment family and inference on it", memory_bound(d), memory_limit(),
                 "; use smaller radius caps or a coarser grid", FamilyTooLargeError)
    return AdjustmentFamily(d, [enumerate_component_balls(c) for c in d.components])
